(** The modules on which tests pin the compile path's hot code ([Defs],
    [Printer], [Regalloc], [Asm]) to its references in [zkopt_oracle],
    and on which they count that code's allocation. *)

open Zkopt_core
module W = Zkopt_workloads.Workload

let profiles =
  [ Profile.Baseline; Profile.Level Zkopt_passes.Catalog.O1;
    Profile.Level Zkopt_passes.Catalog.O3; Profile.Level Zkopt_passes.Catalog.Oz;
    Profile.Zkvm_o3 ]

let prepare (w : W.t) p = Measure.prepare_ir ~build:(fun () -> w.W.build W.Quick) p

(** Every suite program at Quick under baseline, -O1, -O3, -Oz and
    -O3(zkvm), named ["<program> <profile>"]; built once per test run.
    Tests only read them. *)
let suite =
  lazy
    (List.concat_map
       (fun (w : W.t) ->
         List.map (fun p -> (w.W.name ^ " " ^ Profile.name p, prepare w p)) profiles)
       (Zkopt_workloads.Suite.all ()))

(** A random program, optimized under one of the same five profiles. *)
let random seed =
  Measure.prepare_ir
    ~build:(fun () -> Zkopt_ir.Randprog.generate ~seed ())
    (List.nth profiles (seed mod List.length profiles))

(** The cells the work-count tests measure: a large and a small -O3
    module, an unoptimized one and a zkVM-aware one. *)
let work_cells () =
  ignore (Zkopt_workloads.Suite.all ());
  List.map
    (fun (prog, p) -> (prog ^ " " ^ Profile.name p, prepare (W.find prog) p))
    [ ("ecdsa-verify", Profile.Level Zkopt_passes.Catalog.O3);
      ("polybench-gemm", Profile.Level Zkopt_passes.Catalog.O3);
      ("sha256", Profile.Baseline);
      ("npb-is", Profile.Zkvm_o3) ]

(** Minor words [f] allocates: a count that repeats exactly, so a
    return of per-item allocation shows without timing noise. *)
let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before
