(* Overhead gates for the decoded machine, bechamel-timed on loop-sum.

   1. The no-sink machine must stay well ahead of the boxed reference
      executor ([Zkopt_oracle.Ref_executor.run], no sink, no fault) on
      the same image: fail if it is less than [min_oracle_speedup] times
      faster, or if the two results differ at all.
   2. The CPU timing model runs on the machine's CPU mode: fail if
      [Measure.run_cpu] costs more than [max_cpu_ratio] times the
      no-sink machine run of the same image. *)

open Bechamel
open Toolkit
open Zkopt_zkvm
module Seedfmt = Zkopt_devutil.Seedfmt

let tool = "profcheck"

(* Over 12 runs on a 2-core Xeon host the no-sink machine ran 2.4-3.8x
   faster than the reference; with its loop planted to run twice per
   call it ran 1.4x faster. *)
let min_oracle_speedup = 1.8

(* The CPU model folds one extra stream over the same instructions; on
   the boxed emulator it cost about 4x the executor. *)
let max_cpu_ratio = 2.5

let ns_per_run test =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:None () in
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
  let t_ref =
    ns_per_run
      (Test.make ~name:"reference" (Staged.stage (fun () -> ignore (reference ()))))
  in
  let t_live =
    ns_per_run (Test.make ~name:"live" (Staged.stage (fun () -> ignore (live ()))))
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
  let t_cpu =
    ns_per_run
      (Test.make ~name:"cpu"
         (Staged.stage (fun () -> ignore (Zkopt_core.Measure.run_cpu c))))
  in
  let ratio = t_cpu /. t_live in
  Printf.printf
    "profcheck: CPU model %.0f ns/run = %.2fx the no-sink machine (limit %.1fx)\n"
    t_cpu ratio max_cpu_ratio;
  if ratio > max_cpu_ratio then
    Seedfmt.fail ~tool "CPU model costs %.2fx the machine, limit %.1fx" ratio
      max_cpu_ratio;
  Seedfmt.finish tool
