(** Cross-ISA experiment: the paper's register-pair spill mechanism
    inverts on a zk-native ISA.

    On the RV32 backends, loop unrolling (plus GVN over the unrolled
    copies) extends the live ranges of 64-bit temporaries across the
    whole unrolled region; the register allocator runs out of pairs and
    inserts spill lw/sw traffic, so the "optimization" regresses
    execution (Fig. 10/11's mechanism, here triggered by the unroller).
    The Valida-style backend has no register file — every IR register is
    a frame cell — so the spill path does not exist *by construction*:
    the same IR transform only removes loop-overhead rows and the effect
    inverts.  Everything below is measured from the two simulators
    (static spill counts from codegen, cycle/row counts from execution);
    no constants are baked in. *)

open Zkopt_ir
open Zkopt_core
open Zkopt_report
module B = Builder
module Backend = Zkopt_backend.Backend
module Registry = Zkopt_backend.Registry
module Stats = Zkopt_stats.Stats

let () = Zkopt_valida.Vbackend.ensure ()

(* ------------------------------------------------------------------ *)
(* The pressure program                                                *)
(* ------------------------------------------------------------------ *)

(* [streams] 64-bit products of a loop-invariant seed are recomputed in
   a short inner loop of [trip] iterations.  Rolled, each product is
   born and dies inside one iteration (no pressure).  Fully unrolled,
   GVN recognizes the copies as the same pure expression and reuses the
   first copy's value, keeping [streams] register *pairs* live across
   the whole unrolled region — more than the RV32 allocator's pool. *)
let pressure_program ~streams ~trip ~n () =
  let m = Modul.create () in
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let seed = B.sext b (B.imm 0x1234567) in
         let s = B.var b Ty.I64 (B.imm 0) in
         B.for_ b ~from:(B.imm 0) ~bound:(B.imm n) (fun i ->
             B.for_ b ~from:(B.imm 0) ~bound:(B.imm trip) (fun j ->
                 let t = B.sext b (B.add b i j) in
                 for k = 0 to streams - 1 do
                   let v =
                     B.xor ~ty:Ty.I64 b seed
                       (B.imm ((k * 2654435761) lor 0x9E3779B9))
                   in
                   (* three uses of the loop-invariant [v] per copy: once
                      unrolled copies share one CSE'd definition, every
                      use is a pair reload if [v] lost its registers *)
                   let a1 = B.add ~ty:Ty.I64 b (Value.Reg s) v in
                   let a2 = B.xor ~ty:Ty.I64 b v t in
                   let a3 = B.and_ ~ty:Ty.I64 b v (B.imm 0x0F0F0F0F) in
                   B.set b Ty.I64 s
                     (B.add ~ty:Ty.I64 b a1 (B.xor ~ty:Ty.I64 b a2 a3))
                 done));
         B.ret b (Some (B.trunc b (Value.Reg s)))));
  m

let unroll_profile =
  Profile.Custom
    ( [ "loop-unroll"; "gvn" ],
      { Zkopt_passes.Pass.standard_config with unroll_threshold = 400 } )

(* ------------------------------------------------------------------ *)
(* Generic measurement over the registry                               *)
(* ------------------------------------------------------------------ *)

let spill_count (c : Backend.compiled) =
  List.fold_left (fun a (_, n) -> a + n) 0 (c.Backend.spills ())

let measure_on (b : Backend.t) ~build profile =
  let m = Measure.prepare_ir ~build profile in
  let c = b.Backend.compile m in
  let r = c.Backend.measure ~vm:b.Backend.name () in
  (match r.Backend.accounting with
  | Ok () -> ()
  | Error e -> failwith (b.Backend.name ^ ": accounting: " ^ e));
  (c, r.Backend.zk)

let study ~label ~build ~profile backends =
  Report.note "%s" label;
  let exits = ref [] in
  let rows =
    List.map
      (fun (b : Backend.t) ->
        let cb, zb = measure_on b ~build Profile.Baseline in
        let cu, zu = measure_on b ~build profile in
        exits := (b.Backend.name, zb.Measure.exit_value, zu.Measure.exit_value)
                 :: !exits;
        let dcycles =
          (float_of_int zu.Measure.cycles /. float_of_int zb.Measure.cycles
          -. 1.0)
          *. 100.0
        in
        let dmem =
          zu.Measure.loads + zu.Measure.stores
          - (zb.Measure.loads + zb.Measure.stores)
        in
        [ b.Backend.name;
          (if b.Backend.zk_native then "yes" else "no");
          string_of_int (spill_count cb);
          string_of_int (spill_count cu);
          Printf.sprintf "%+.1f%%" dcycles;
          Printf.sprintf "%+d" dmem;
          Report.pct
            (Stats.improvement_pct ~base:zb.Measure.exec_time_s
               zu.Measure.exec_time_s) ])
      backends
  in
  Report.table
    ~headers:
      [ "backend"; "zk-native"; "spills base"; "spills unrolled";
        "cycles delta"; "mem-op delta"; "exec speedup" ]
    rows;
  (* the backends disagree on nothing but cost: exit values must match *)
  (match !exits with
  | (_, e0b, e0u) :: rest ->
    List.iter
      (fun (name, eb, eu) ->
        if not (Int64.equal eb e0b && Int64.equal eu e0u) then
          failwith ("cross-backend exit divergence on " ^ name))
      rest;
    Report.note "  exit values agree across all %d backends (0x%Lx / 0x%Lx)"
      (List.length !exits) e0b e0u
  | [] -> ())

let run () =
  Report.section
    "Cross-ISA — the unroll spill regression inverts on a zk-native ISA";
  Report.paper
    "RV32 zkVMs inherit the CPU register file, so live-range growth from \
     unrolling turns into register-pair spill traffic; a zk-native \
     frame-machine ISA has no registers to spill";
  let backends =
    [ Registry.find "risc0"; Registry.find "sp1"; Registry.find "valida" ]
  in
  study
    ~label:
      "u64 pressure kernel: baseline vs loop-unroll+gvn (spills measured \
       from codegen, cycles from execution)"
    ~build:(pressure_program ~streams:8 ~trip:4 ~n:12_000)
    ~profile:unroll_profile backends;
  study ~label:"fig. 11 matvec kernel under loop-unroll+gvn"
    ~build:Exp_cases.matvec_program ~profile:unroll_profile backends
