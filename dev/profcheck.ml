(* Overhead gates for the decoded machines, bechamel-timed on loop-sum.

   1. The no-sink machine must stay well ahead of the boxed reference
      executor ([Zkopt_oracle.Ref_executor.run], no sink, no fault) on
      the same image: fail if it is less than [min_oracle_speedup] times
      faster, or if the two results differ at all.
   2. The CPU timing model runs on the machine's CPU mode: fail if
      [Measure.run_cpu] costs more than [max_cpu_ratio] times the
      no-sink machine run of the same image.
   3. The decoded Valida frame machine ([Vexec.run (Vexec.decode ...)],
      no sink) must stay well ahead of the boxed reference interpreter
      ([Zkopt_oracle.Ref_vexec.run]) on loop-sum's Valida program: fail
      if it is less than [min_valida_speedup] times faster, or if the
      two results differ at all. *)

open Bechamel
open Toolkit
open Zkopt_zkvm
module Seedfmt = Zkopt_devutil.Seedfmt

let tool = "profcheck"

(* Every gate compares sides timed the same way: each side is the least
   of four quarter-second estimates, taken in alternation with the other
   sides.  One 1 s estimate per side spread gate 1 over 2.4-6.2x (a
   planted 2x slowdown read about 1.4x) and gate 3 over 3.0-5.7x (planted
   1.8-2.7x), leaving no floor that separates a planted copy from the
   machine. *)

(* Over 10 runs on a 2-core Xeon host the no-sink machine ran 2.7-3.2x
   faster than the reference; with its loop planted to run twice per
   call, 1.33-1.45x. *)
let min_oracle_speedup = 2.0

(* The CPU model folds one extra stream over the same instructions.
   Over 10 runs on a 2-core Xeon host it cost 1.15-1.40x the no-sink
   machine; with its loop planted to run twice per call, 2.02-2.57x, of
   which a 2.5x limit passed 7 of 10. *)
let max_cpu_ratio = 1.7

(* Over 10 runs on a 2-core Xeon host the decoded Valida machine ran
   3.8-4.0x faster than the reference; with its loop planted to run
   twice per call it ran 1.9-2.1x faster. *)
let min_valida_speedup = 2.8

let ns_per_run test =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let results = Benchmark.all cfg [ Instance.monotonic_clock ] test in
  let est = ref nan in
  Hashtbl.iter
    (fun _ raw ->
      let stats =
        Analyze.one
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          Instance.monotonic_clock raw
      in
      match Analyze.OLS.estimates stats with
      | Some [ e ] -> est := e
      | _ -> ())
    results;
  !est

(* ns per call of each side: the least of four estimates, the sides
   estimated in turn within each round. *)
let least_of_four sides =
  let best = Array.make (List.length sides) infinity in
  for _ = 1 to 4 do
    List.iteri
      (fun k (name, f) ->
        let t = ns_per_run (Test.make ~name (Staged.stage f)) in
        best.(k) <- Float.min best.(k) t)
      sides
  done;
  Array.to_list best

let () =
  Zkopt_workloads.Suite.check_composition ();
  let w = Zkopt_workloads.Workload.find "loop-sum" in
  let build () = w.Zkopt_workloads.Workload.build Zkopt_workloads.Workload.Quick in
  let c = Zkopt_core.Measure.prepare ~build Zkopt_core.Profile.Baseline in
  let cg = c.Zkopt_core.Measure.codegen and m = c.Zkopt_core.Measure.modul in
  let cfg = Config.risc0 in
  let live () = Machine.run (Machine.decode cfg cg m) in
  let reference () = Zkopt_oracle.Ref_executor.run cfg cg m in
  (* keep the reference honest: both executors must agree on everything *)
  if live () <> reference () then begin
    Seedfmt.fail ~tool "reference diverged from the machine on workload %s"
      w.Zkopt_workloads.Workload.name;
    Seedfmt.finish tool
  end;
  let cpu () = Zkopt_core.Measure.run_cpu c in
  let t_ref, t_live, t_cpu =
    match
      least_of_four
        [ ("reference", fun () -> ignore (reference ()));
          ("live", fun () -> ignore (live ()));
          ("cpu", fun () -> ignore (cpu ())) ]
    with
    | [ r; l; c ] -> (r, l, c)
    | _ -> assert false
  in
  let speedup = t_ref /. t_live in
  Printf.printf
    "profcheck: reference %.0f ns/run, machine (no sink) %.0f ns/run: \
     %.2fx faster (floor %.1fx)\n"
    t_ref t_live speedup min_oracle_speedup;
  if speedup < min_oracle_speedup then
    Seedfmt.fail ~tool
      "no-sink machine only %.2fx faster than the reference, floor %.1fx"
      speedup min_oracle_speedup;
  let ratio = t_cpu /. t_live in
  Printf.printf
    "profcheck: CPU model %.0f ns/run = %.2fx the no-sink machine (limit %.1fx)\n"
    t_cpu ratio max_cpu_ratio;
  if ratio > max_cpu_ratio then
    Seedfmt.fail ~tool "CPU model costs %.2fx the machine, limit %.1fx" ratio
      max_cpu_ratio;
  let vcfg = Zkopt_valida.Vconfig.valida in
  let vp =
    Zkopt_valida.Vlower.lower
      (Zkopt_core.Measure.prepare_ir ~build Zkopt_core.Profile.Baseline)
  in
  let vlive () = Zkopt_valida.Vexec.run (Zkopt_valida.Vexec.decode vcfg vp) in
  let vreference () = Zkopt_oracle.Ref_vexec.run vcfg vp in
  if vlive () <> vreference () then begin
    Seedfmt.fail ~tool
      "the Valida reference diverged from the decoded machine on workload %s"
      w.Zkopt_workloads.Workload.name;
    Seedfmt.finish tool
  end;
  let t_vref, t_vlive =
    match
      least_of_four
        [ ("valida reference", fun () -> ignore (vreference ()));
          ("valida", fun () -> ignore (vlive ())) ]
    with
    | [ r; l ] -> (r, l)
    | _ -> assert false
  in
  let vspeedup = t_vref /. t_vlive in
  Printf.printf
    "profcheck: Valida reference %.0f ns/run, decoded machine (no sink) %.0f \
     ns/run: %.2fx faster (floor %.1fx)\n"
    t_vref t_vlive vspeedup min_valida_speedup;
  if vspeedup < min_valida_speedup then
    Seedfmt.fail ~tool
      "decoded Valida machine only %.2fx faster than the reference, floor %.1fx"
      vspeedup min_valida_speedup;
  Seedfmt.finish tool
