(* Tests for the benchmark's own parts: the seeded inputs, metric names,
   the quartile helper, span accounting, the IR replay, and the
   output check. *)

open Perfbench
open Zkopt_core
module Stats = Zkopt_stats.Stats
module Json = Zkopt_report.Json

let feq = Alcotest.float 1e-12

let names (i : Inputs.t) =
  (i.Inputs.programs, List.map Profile.name i.Inputs.profiles, i.Inputs.backends)

let test_draw_depends_on_seed_only () =
  List.iter
    (fun (wname, w) ->
      let a = Inputs.make w ~seed:17 and b = Inputs.make w ~seed:17 in
      Alcotest.(check bool) (wname ^ ": same seed, same inputs") true (names a = names b);
      let distinct =
        List.exists (fun s -> names (Inputs.make w ~seed:s) <> names a) [ 1; 2; 3 ]
      in
      Alcotest.(check bool) (wname ^ ": seed changes the draw") true distinct)
    Inputs.workloads

let valid_name s =
  String.length s >= 1 && String.length s <= 64
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let test_metric_names () =
  let all = List.map fst Engine.end_to_end @ List.map (fun (n, _, _) -> n) Engine.layers in
  List.iter (fun n -> Alcotest.(check bool) ("valid name " ^ n) true (valid_name n)) all;
  Alcotest.(check int) "names are unique" (List.length all)
    (List.length (List.sort_uniq compare all))

(* BENCHMARK.json names exactly the metrics the benchmark prints. *)
let test_benchmark_json () =
  let json =
    match Json.of_string (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let field key name =
    match Json.member key json with
    | Some (Json.Arr xs) -> List.map (fun x -> Option.get (Json.str_member name x)) xs
    | _ -> Alcotest.fail ("no " ^ key)
  in
  let listed key = List.combine (field key "name") (field key "unit") in
  Alcotest.(check (list (pair string string))) "end_to_end" Engine.end_to_end
    (listed "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer"
    (List.map (fun (n, u, _) -> (n, u)) Engine.layers)
    (listed "per_layer");
  Alcotest.(check (list string)) "workloads"
    (List.map fst Inputs.workloads)
    (field "workloads" "name")

let samples =
  [ [ 3.0 ]; [ 3.0; 1.0 ]; [ 5.0; 1.0; 4.0 ]; [ 2.5; 9.0; 1.0; 7.0; 7.0; 3.25 ];
    List.init 10 (fun i -> float_of_int (i + 1)) ]

let test_quartiles () =
  List.iter
    (fun xs ->
      let _, q2, _ = Bstats.quartiles xs in
      Alcotest.check feq "q2 = Stats.median" (Stats.median xs) q2)
    samples;
  (* Python: statistics.quantiles(..., n=4) *)
  let check_q xs (a, b, c) =
    let q1, q2, q3 = Bstats.quartiles xs in
    Alcotest.(check (list feq)) "python quartiles" [ a; b; c ] [ q1; q2; q3 ]
  in
  check_q (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check_q (List.init 9 (fun i -> float_of_int (i + 1))) (2.5, 5.0, 7.5);
  check_q [ 3.0; 1.0 ] (0.5, 2.0, 3.5);
  check_q [ 5.0; 1.0; 4.0 ] (1.0, 4.0, 5.0)

(* Layer self times plus the unattributed remainder reproduce the wall. *)
let test_spans_account_for_wall () =
  let t = ref 0.0 in
  let at v = t := v in
  let sp = Spans.create ~clock:(fun () -> !t) () in
  at 1.0;
  Spans.time sp "outer" (fun () ->
      at 2.0;
      Spans.time sp "inner" (fun () -> at 5.0);
      Spans.time sp "inner" (fun () -> at 6.5);
      at 8.0);
  at 9.0;
  (try Spans.time sp "raises" (fun () -> at 9.5; failwith "x") with Failure _ -> ());
  at 12.0;
  let wall = 12.0 in
  Alcotest.check feq "outer self" 2.5 (Spans.self sp "outer");
  Alcotest.check feq "inner self" 4.5 (Spans.self sp "inner");
  Alcotest.(check int) "inner calls" 2 (Spans.calls sp "inner");
  Alcotest.check feq "raising span still closes" 0.5 (Spans.self sp "raises");
  let remainder = wall -. Spans.attributed sp in
  Alcotest.check feq "remainder" 4.5 remainder;
  Alcotest.check feq "self times + remainder = wall" wall
    (List.fold_left ( +. ) remainder
       (List.map (Spans.self sp) [ "outer"; "inner"; "raises" ]))

(* The serial replay rebuilds exactly the module Measure.prepare_ir does. *)
let test_replay_matches_prepare_ir () =
  let w = Zkopt_workloads.Workload.find "fibonacci" in
  ignore (Zkopt_workloads.Suite.all ());
  List.iter
    (fun profile ->
      let t = Engine.tracer () in
      let replayed = Engine.replay_ir t w profile in
      let direct =
        Measure.prepare_ir ~build:(fun () -> w.Zkopt_workloads.Workload.build Engine.size) profile
      in
      Alcotest.(check string)
        ("replay of " ^ Profile.name profile)
        (Zkopt_exec.Fingerprint.of_modul direct)
        (Zkopt_exec.Fingerprint.of_modul replayed))
    [ Profile.Baseline; Profile.Single_pass "licm";
      Profile.Level Zkopt_passes.Catalog.O2; Profile.Level Zkopt_passes.Catalog.Oz;
      Profile.Zkvm_o3 ]

(* A sweep over fibonacci at baseline and -O1 on [backends], honest,
   then with [lie] applied to each backend record. *)
let planted ~backends lie =
  let inp =
    { Inputs.workload = Inputs.Matrix; seed = 0; programs = [ "fibonacci" ];
      profiles = [ Profile.Baseline; Profile.Level Zkopt_passes.Catalog.O1 ];
      backends }
  in
  let dir = "planted-run" in
  Engine.rm_rf dir;
  Engine.mkdir_p dir;
  let env = Engine.setup ~dir inp in
  Fun.protect
    ~finally:(fun () ->
      Zkopt_exec.Pool.shutdown env.Engine.pool;
      Engine.rm_rf dir)
    (fun () ->
      let refs = Engine.references env in
      let pass env =
        Engine.sweep_pass env refs ~cache:(Zkopt_exec.Cache.create ())
          ~ckpt:(Filename.concat dir "c.ckpt")
      in
      let honest = pass env in
      Alcotest.(check int) "honest run measures every cell" 2 honest.Engine.attempted;
      match pass { env with Engine.backends = List.map lie env.Engine.backends } with
      | _ -> Alcotest.fail "a wrong exit value passed the check"
      | exception Engine.Mismatch _ -> ())

module B = Zkopt_backend.Backend

(* [b], with the exit value off by one in the [nth] measurement
   (0-based) on [vm], or in every measurement when these are [None].
   Backends of one codegen family share the first one's compiled
   artifact, so the lie keys on the VM measured, not on the record. *)
let lying ?vm:only ?nth (b : B.t) : B.t =
  let calls = ref 0 in
  { b with
    B.compile =
      (fun m ->
        let c = b.B.compile m in
        { c with
          B.measure =
            (fun ~vm ?fault ?fuel ?sink () ->
              let r = c.B.measure ~vm ?fault ?fuel ?sink () in
              let on_vm = Option.fold ~none:true ~some:(String.equal vm) only in
              let i = !calls in
              if on_vm then incr calls;
              if on_vm && (nth = None || nth = Some i) then
                { r with
                  B.zk = { r.B.zk with Measure.exit_value = Int64.succ r.B.zk.Measure.exit_value } }
              else r)
        }) }

(* A backend that reports a wrong exit value fails the output check,
   even when it is the only backend and so agrees with itself. *)
let test_planted_wrong_exit_fails () = planted ~backends:[ "risc0" ] (fun b -> lying b)

(* One backend lying on one cell: the harness quarantines the cell as a
   miscompile and writes no row for it, which must still fail the run. *)
let test_planted_quarantined_cell_fails () =
  planted ~backends:[ "risc0"; "sp1" ] (lying ~vm:"sp1" ~nth:1)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "seeded draw depends only on the seed" `Quick
            test_draw_depends_on_seed_only;
          Alcotest.test_case "metric names are well formed" `Quick test_metric_names;
          Alcotest.test_case "BENCHMARK.json lists the printed metrics" `Quick
            test_benchmark_json;
          Alcotest.test_case "quartiles agree with stats and Python" `Quick
            test_quartiles;
          Alcotest.test_case "self times plus remainder equal the wall" `Quick
            test_spans_account_for_wall;
          Alcotest.test_case "replay matches prepare_ir" `Quick
            test_replay_matches_prepare_ir;
          Alcotest.test_case "planted wrong exit value fails" `Quick
            test_planted_wrong_exit_fails;
          Alcotest.test_case "one backend lying on one cell fails" `Quick
            test_planted_quarantined_cell_fails;
        ] );
    ]
