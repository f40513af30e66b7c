(** Settlement-model tests: the §1 gas fixture is pinned exactly (and
    within the 1% reproduction tolerance), gas grows by exactly one
    sumcheck round plus one MSM point per circuit doubling, aggregation
    plans obey the depth law and are monotone in segment count, the
    settlement row codec roundtrips, the three checkpoint row decoders
    are total on torn rows, pricing real measurements is deterministic
    and invariant-clean across every registered backend, and the
    settlement sweep runs no pass pipeline on a warm compile cache, in
    memory or over its disk store. *)

open Zkopt_ir
module B = Builder
module Backend = Zkopt_backend.Backend
module Registry = Zkopt_backend.Registry
module Measure = Zkopt_core.Measure
module Profile = Zkopt_core.Profile
module Gas = Zkopt_settle.Gas
module Sparams = Zkopt_settle.Sparams
module Proofsize = Zkopt_settle.Proofsize
module Recursion = Zkopt_settle.Recursion
module S = Zkopt_settle.Settle
module Ssweep = Zkopt_settle.Ssweep

let () = Zkopt_valida.Vbackend.ensure ()

(* ---- the §1 gas fixture ---------------------------------------------- *)

(* The measured on-chain breakdown the model is calibrated to: 2^20
   circuit, 10,560-byte wrapped proof, 100 public inputs. *)
let test_gas_fixture () =
  let g = Gas.of_root 20 in
  Alcotest.(check int) "load+parse" 227_965 g.Gas.load_parse;
  Alcotest.(check int) "transcript" 310_881 g.Gas.transcript;
  Alcotest.(check int) "public inputs" 86_707 g.Gas.pi_delta;
  Alcotest.(check int) "sumcheck" 599_934 g.Gas.sumcheck;
  Alcotest.(check int) "shplemini" 1_599_679 g.Gas.shplemini;
  Alcotest.(check int) "total" 2_825_166 g.Gas.total;
  Alcotest.(check int) "msm size" 62 g.Gas.msm_size;
  Alcotest.(check int) "sumcheck rounds" 20 g.Gas.sumcheck_rounds;
  (* the acceptance tolerance: model within 1% of the measurement *)
  let err =
    Float.abs (float_of_int g.Gas.total /. 2_825_166.0 -. 1.0) *. 100.0
  in
  Alcotest.(check bool) "within 1% of the §1 measurement" true (err < 1.0)

let test_gas_per_doubling () =
  Alcotest.(check int) "per-doubling constant" 36_538 Gas.per_doubling_gas;
  for log_n = 1 to 40 do
    let d = (Gas.of_root (log_n + 1)).Gas.total - (Gas.of_root log_n).Gas.total in
    Alcotest.(check int)
      (Printf.sprintf "doubling at log_n=%d" log_n)
      Gas.per_doubling_gas d
  done

let qcheck_gas_monotone =
  QCheck.Test.make ~name:"gas monotone in log_n, proof bytes and inputs"
    ~count:200
    QCheck.(triple (int_range 1 40) (int_range 128 100_000) (int_range 0 500))
    (fun (log_n, bytes, pis) ->
      let g = Gas.of_root ~proof_bytes:bytes ~public_inputs:pis log_n in
      let bigger_n = Gas.of_root ~proof_bytes:bytes ~public_inputs:pis (log_n + 1) in
      let bigger_p = Gas.of_root ~proof_bytes:(bytes + 136) ~public_inputs:pis log_n in
      let bigger_i = Gas.of_root ~proof_bytes:bytes ~public_inputs:(pis + 1) log_n in
      g.Gas.total < bigger_n.Gas.total
      && g.Gas.total < bigger_p.Gas.total
      && g.Gas.total < bigger_i.Gas.total)

(* ---- proof size ------------------------------------------------------- *)

let qcheck_proofsize_log =
  (* doubling the padded area adds exactly [queries * path_bytes]: one
     more Merkle level per query, nothing else *)
  QCheck.Test.make ~name:"proof size is O(log N): +1 path level per doubling"
    ~count:100
    QCheck.(int_range 13 30)
    (fun po2 ->
      List.for_all
        (fun (p : Sparams.t) ->
          Proofsize.bytes p ~padded:(1 lsl (po2 + 1))
          - Proofsize.bytes p ~padded:(1 lsl po2)
          = p.Sparams.queries * p.Sparams.path_bytes)
        Sparams.all)

(* ---- aggregation ------------------------------------------------------ *)

let qcheck_depth_law =
  QCheck.Test.make ~name:"plan depth = ceil(log_arity segments)" ~count:300
    QCheck.(pair (int_range 1 400) (int_range 2 16))
    (fun (segs, arity) ->
      let seg_padded = List.init segs (fun _ -> 1 lsl 20) in
      let plan = Recursion.plan Sparams.risc0 ~arity ~seg_padded () in
      (* independent closed form: smallest d with arity^d >= segs *)
      let rec closed d cap = if cap >= segs then d else closed (d + 1) (cap * arity) in
      plan.Recursion.depth = closed 0 1
      && plan.Recursion.segments = segs
      && (segs = 1) = (plan.Recursion.nodes = 0))

let qcheck_agg_monotone =
  QCheck.Test.make ~name:"aggregation cost monotone in segment count"
    ~count:100
    QCheck.(pair (int_range 1 200) (int_range 2 12))
    (fun (segs, arity) ->
      List.for_all
        (fun (p : Sparams.t) ->
          let cost n =
            (Recursion.plan p ~arity
               ~seg_padded:(List.init n (fun _ -> 1 lsl 20))
               ())
              .Recursion.agg_total_s
          in
          cost segs <= cost (segs + 1))
        Sparams.all)

let test_single_segment_plan () =
  (* one segment needs no aggregation: the leaf is the root *)
  let plan = Recursion.plan Sparams.sp1 ~seg_padded:[ 1 lsl 21 ] () in
  Alcotest.(check int) "depth" 0 plan.Recursion.depth;
  Alcotest.(check int) "nodes" 0 plan.Recursion.nodes;
  Alcotest.(check int) "agg cycles" 0 plan.Recursion.agg_cycles;
  Alcotest.(check int) "root padded" (1 lsl 21) plan.Recursion.root_padded;
  Alcotest.(check int) "root bytes"
    (Proofsize.bytes Sparams.sp1 ~padded:(1 lsl 21))
    plan.Recursion.root_proof_bytes

(* ---- pricing and the row codec ---------------------------------------- *)

(* A synthetic measurement: enough structure for pricing, no execution. *)
let measurement ~vm ~prove_us ~seg_padded ~cycles : Backend.measurement =
  {
    Backend.zk =
      {
        Measure.vm;
        cycles;
        exec_time_s = 0.01;
        prove_time_s = float_of_int prove_us *. 1e-6;
        segments = List.length seg_padded;
        paging_cycles = 0;
        page_ins = 0;
        page_outs = 0;
        loads = 0;
        stores = 0;
        exit_value = 0L;
      };
    faulted = false;
    seg_padded;
  }

let qcheck_row_roundtrip =
  QCheck.Test.make ~name:"settlement row codec roundtrips" ~count:300
    QCheck.(
      quad (int_range 1 40) (int_range 13 22) (int_range 0 100_000_000)
        (int_range 2 12))
    (fun (segs, po2, prove_us, arity) ->
      let backend = List.nth [ "risc0"; "sp1"; "valida" ] (segs mod 3) in
      let m =
        measurement ~vm:backend ~prove_us
          ~seg_padded:(List.init segs (fun i -> 1 lsl (max 13 (po2 - (i mod 3)))))
          ~cycles:(segs * 100_000)
      in
      let r = S.price ~arity ~backend m in
      let row = S.row_of_report ~program:"prog" ~profile:"-O2" r in
      match S.report_of_row row with
      | Some (p, pr, r') ->
        (* floats travel as micro-units, so structural equality holds
           up to re-encoding: a decoded report must print the same row
           and keep every integer field *)
        p = "prog" && pr = "-O2"
        && S.row_of_report ~program:p ~profile:pr r' = row
        && r'.S.settled_cost = r.S.settled_cost
        && r'.S.prover_cost = r.S.prover_cost
        && r'.S.agg_cost = r.S.agg_cost
        && r'.S.gas_cost = r.S.gas_cost
        && r'.S.plan.Recursion.depth = r.S.plan.Recursion.depth
        && r'.S.gas = r.S.gas
      | None -> false)

(* ---- total row decoders ---------------------------------------------- *)

module Cell = Zkopt_harness.Cell
module Checkpoint = Zkopt_harness.Checkpoint
module A = Zkopt_autotune.Autotune

(* The three decoders the row logs load through — sweep points, tuner
   children, settlement rows — round-trip what their encoders write and
   return [None] on every proper prefix without raising.  One exception,
   pinned exactly: a sweep row has no terminal field, so a cut inside its
   last field (an exit value) still decodes, to a different point.  The
   log framing drops such a line because it has no newline. *)
let gen_point : Cell.point QCheck.Gen.t =
  let open QCheck.Gen in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  let time = map2 ldexp (float_range 0. 1.) (int_range (-40) 40) in
  let zk =
    map3
      (fun vm ints (exec_time_s, prove_time_s, exit_value) ->
        match ints with
        | [ cycles; segments; paging_cycles; page_ins; page_outs; loads;
            stores ] ->
          { Measure.vm; cycles; exec_time_s; prove_time_s; segments;
            paging_cycles; page_ins; page_outs; loads; stores; exit_value }
        | _ -> assert false)
      name (list_repeat 7 int) (triple time time ui64)
  in
  let cpu =
    map2
      (fun (cpu_cycles, cpu_time_s) (mispredicts, cache_misses, cpu_exit_value)
         ->
        { Measure.cpu_cycles; cpu_time_s; mispredicts; cache_misses;
          cpu_exit_value })
      (pair time time) (triple int int ui64)
  in
  map3
    (fun (program, suite, profile) zk cpu ->
      { Cell.program; suite; profile; zk; cpu })
    (triple name name name)
    (list_size (int_range 1 3) zk)
    (opt cpu)

let gen_child =
  let open QCheck.Gen in
  let fp = string_size ~gen:(oneofl [ 'a'; 'f'; '0'; '9' ]) (int_range 1 8) in
  let score =
    map3
      (fun starget sfp scycles -> { A.starget; sfp; scycles })
      (oneofl [ "risc0"; "sp1" ]) fp int
  in
  let pass = oneofl [ "licm"; "gvn"; "inline"; "mem2reg" ] in
  pair
    (quad int int (oneofl [ 'm'; 'd'; 'p'; 'f' ]) int)
    (pair (list_size (int_range 1 5) pass) (list_size (int_bound 3) score))

let gen_settle_row =
  QCheck.Gen.(
    map
      (fun ((segs, po2, prove_us, arity), backend) ->
        let m =
          measurement ~vm:backend ~prove_us
            ~seg_padded:
              (List.init segs (fun i -> 1 lsl (max 13 (po2 - (i mod 3)))))
            ~cycles:(segs * 100_000)
        in
        S.row_of_report ~program:"p" ~profile:"-O2" (S.price ~arity ~backend m))
      (pair
         (quad (int_range 1 40) (int_range 13 22) (int_range 0 100_000_000)
            (int_range 2 12))
         (oneofl [ "risc0"; "sp1"; "valida" ])))

(* [ok cut torn] judges [torn], the proper prefix of length [cut] *)
let prefixes_ok row ok =
  List.for_all
    (fun cut -> ok cut (String.sub row 0 cut))
    (List.init (String.length row) Fun.id)

let qcheck_decoders_total =
  QCheck.Test.make ~name:"row decoders total on torn prefixes" ~count:200
    (QCheck.make QCheck.Gen.(triple gen_point gen_child gen_settle_row))
    (fun (p, ((gen, idx, kind, fitness), (genome, scores)), srow) ->
      let prow = Checkpoint.encode_point p in
      let last_field = String.rindex prow '\t' + 1 in
      let sweep =
        Option.map Checkpoint.encode_point (Checkpoint.decode_point prow)
        = Some prow
        && prefixes_ok prow (fun cut torn ->
               match Checkpoint.decode_point torn with
               | None -> true
               | Some q ->
                 cut > last_field && Checkpoint.encode_point q <> prow)
      in
      let arow =
        A.row_of_child ~gen ~idx genome
          { A.vkind = kind; vfitness = fitness; vscores = scores }
      in
      let tuner =
        A.parse_child_row arow = Some (gen, idx, kind, fitness, genome, scores)
        && prefixes_ok arow (fun _ torn -> A.parse_child_row torn = None)
      in
      let settle =
        (match S.report_of_row srow with
        | Some (program, profile, r) ->
          S.row_of_report ~program ~profile r = srow
        | None -> false)
        && prefixes_ok srow (fun _ torn -> S.report_of_row torn = None)
      in
      sweep && tuner && settle)

let qcheck_settled_dominates =
  QCheck.Test.make ~name:"settled cost >= each component" ~count:200
    QCheck.(pair (int_range 1 64) (int_range 0 50_000_000))
    (fun (segs, prove_us) ->
      List.for_all
        (fun backend ->
          let m =
            measurement ~vm:backend ~prove_us
              ~seg_padded:(List.init segs (fun _ -> 1 lsl 18))
              ~cycles:(segs * 50_000)
          in
          let r = S.price ~backend m in
          r.S.settled_cost >= r.S.prover_cost
          && r.S.settled_cost >= r.S.agg_cost
          && r.S.settled_cost >= r.S.gas_cost
          && S.check_invariants ~backend m = Ok ())
        [ "risc0"; "sp1"; "valida" ])

let test_sparams_prefix_fallback () =
  Alcotest.(check string) "sp1-dense prices as sp1" "sp1"
    (Sparams.find "sp1-dense").Sparams.family;
  Alcotest.check_raises "unknown family raises"
    (Invalid_argument
       "no settlement parameters for backend \"cairo\" (families: risc0, \
        sp1, valida)")
    (fun () -> ignore (Sparams.find "cairo"))

(* ---- end to end over real measurements -------------------------------- *)

let small_program () =
  let m = Modul.create () in
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let s = B.var b Ty.I32 (B.imm 7) in
         B.for_ b ~from:(B.imm 0) ~bound:(B.imm 200) (fun i ->
             B.set b Ty.I32 s (B.add b (Value.Reg s) (B.mul b i i)));
         B.ret b (Some (Value.Reg s))));
  m

let test_price_real_measurements () =
  List.iter
    (fun (b : Backend.t) ->
      let m = Measure.prepare_ir ~build:small_program Profile.Baseline in
      let c = b.Backend.compile m in
      let r = c.Backend.measure ~vm:b.Backend.name () in
      Alcotest.(check int)
        (b.Backend.name ^ " reports one padded area per segment")
        r.Backend.zk.Measure.segments
        (List.length r.Backend.seg_padded);
      List.iter
        (fun padded ->
          (* rv32 backends pad one table to a power of two; a multi-chip
             backend reports the sum over its tables *)
          let ok =
            padded > 0
            && (b.Backend.zk_native || padded land (padded - 1) = 0)
          in
          Alcotest.(check bool)
            (b.Backend.name ^ " padded areas are positive") true ok)
        r.Backend.seg_padded;
      (match S.check_invariants ~backend:b.Backend.name r with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" b.Backend.name e);
      let r1 = S.price ~backend:b.Backend.name r in
      let r2 = S.price ~backend:b.Backend.name r in
      Alcotest.(check bool)
        (b.Backend.name ^ " pricing deterministic")
        true (r1 = r2))
    (Registry.all ())

(* ---- the settlement sweep on the input key ---------------------------- *)

(* A cold pass, a warm pass over its in-memory cache and a fresh cache
   over its disk store price identical rows; only the cold pass runs a
   pass pipeline, one per cell. *)
let test_sweep_input_key () =
  Test_exec.with_temp_dir @@ fun dir ->
  let run cache =
    Ssweep.run
      {
        (Ssweep.default ~size:Zkopt_workloads.Workload.Quick ()) with
        Ssweep.programs = [ "factorial"; "loop-sum" ];
        profiles = [ Profile.Baseline; Profile.Level Zkopt_passes.Catalog.O2 ];
        backends = Registry.all ();
        cache = Some cache;
      }
  in
  let shared = Zkopt_exec.Cache.create ~dir () in
  let cold = run shared in
  let warm = run shared in
  let disk = run (Zkopt_exec.Cache.create ~dir ()) in
  Alcotest.(check int) "cells" 4 cold.Ssweep.cells;
  Alcotest.(check int) "rows" (4 * List.length (Registry.all ()))
    (List.length cold.Ssweep.rows);
  Alcotest.(check (list string)) "warm rows" cold.Ssweep.rows warm.Ssweep.rows;
  Alcotest.(check (list string)) "disk rows" cold.Ssweep.rows disk.Ssweep.rows;
  Alcotest.(check (list int)) "pipelines: cold, warm, over the disk store"
    [ 4; 0; 0 ]
    (List.map
       (fun (o : Ssweep.outcome) -> o.Ssweep.prepared)
       [ cold; warm; disk ])

let tests =
  [
    Alcotest.test_case "gas fixture (§1 breakdown, exact)" `Quick
      test_gas_fixture;
    Alcotest.test_case "gas per-doubling = 1 round + 1 MSM point" `Quick
      test_gas_per_doubling;
    QCheck_alcotest.to_alcotest qcheck_gas_monotone;
    QCheck_alcotest.to_alcotest qcheck_proofsize_log;
    QCheck_alcotest.to_alcotest qcheck_depth_law;
    QCheck_alcotest.to_alcotest qcheck_agg_monotone;
    Alcotest.test_case "single segment needs no aggregation" `Quick
      test_single_segment_plan;
    QCheck_alcotest.to_alcotest qcheck_row_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_decoders_total;
    QCheck_alcotest.to_alcotest qcheck_settled_dominates;
    Alcotest.test_case "family prefix fallback" `Quick
      test_sparams_prefix_fallback;
    Alcotest.test_case "pricing real measurements (all backends)" `Quick
      test_price_real_measurements;
    Alcotest.test_case "sweep: cold, warm and disk-store rows agree" `Quick
      test_sweep_input_key;
  ]
