(* Overhead gates for the decoded machine, bechamel-timed on loop-sum.

   1. The attribution hooks and the CPU mode must cost the no-sink zkVM
      loop nothing.  The reference below is the executor hot loop exactly
      as it was before attribution landed (no [attr] checks, no
      current-pc tracking, dirty pages as a set rather than page->pc).
      Fail if the live executor's no-sink path is more than
      ZKOPT_PROFCHECK_MAX percent slower (default 5%).
   2. The CPU timing model runs on the machine's CPU mode: fail if
      [Measure.run_cpu] costs more than [max_cpu_ratio] times the
      no-sink [Executor.run] of the same image. *)

open Bechamel
open Toolkit
open Zkopt_riscv
open Zkopt_zkvm
module Seedfmt = Zkopt_devutil.Seedfmt

let tool = "profcheck"

(* The CPU model folds one extra stream over the same instructions; on
   the boxed emulator it cost about 4x the executor. *)
let max_cpu_ratio = 2.5

let reference_run ?(fuel = 500_000_000) (cfg : Config.t) (cg : Codegen.t)
    (m : Zkopt_ir.Modul.t) : int =
  let user = ref 0 and paging = ref 0 in
  let total_user = ref 0 and total_paging = ref 0 in
  let page_ins = ref 0 and page_outs = ref 0 in
  let loads = ref 0 and stores = ref 0 and branches = ref 0 in
  let touched = Hashtbl.create 64 in
  let dirty = Hashtbl.create 64 in
  let touch ~write addr =
    let page = Int32.to_int addr land 0xFFFF_FFFF / cfg.Config.page_bytes in
    if not (Hashtbl.mem touched page) then begin
      Hashtbl.replace touched page ();
      paging := !paging + cfg.Config.page_in_cost;
      incr page_ins
    end;
    if write then Hashtbl.replace dirty page ()
  in
  let close_segment () =
    let outs = Hashtbl.length dirty in
    paging := !paging + (outs * cfg.Config.page_out_cost);
    page_outs := !page_outs + outs;
    total_user := !total_user + !user;
    total_paging := !total_paging + !paging;
    user := 0;
    paging := 0;
    Hashtbl.reset touched;
    Hashtbl.reset dirty
  in
  let hooks = Emulator.no_hooks () in
  let boundary_pending = ref false in
  hooks.on_instr <-
    (fun ~pc ins ->
      touch ~write:false pc;
      user := !user + Config.instr_cost cfg ins;
      (match ins with
      | Isa.Load _ -> incr loads
      | Isa.Store _ -> incr stores
      | Isa.Branch _ | Jal _ | Jalr _ -> incr branches
      | _ -> ());
      if !user >= cfg.Config.segment_limit then boundary_pending := true);
  hooks.on_mem <- (fun ~write addr _bytes -> touch ~write addr);
  hooks.on_precompile <-
    (fun name -> user := !user + Config.precompile_cost cfg name);
  let emu = Emulator.create ~hooks cg.Codegen.program m in
  let budget = ref fuel in
  while not emu.Emulator.halted do
    if !budget <= 0 then raise (Emulator.Out_of_fuel fuel);
    decr budget;
    Emulator.step emu;
    if !boundary_pending then begin
      boundary_pending := false;
      close_segment ()
    end
  done;
  close_segment ();
  !total_user + !total_paging

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
  let max_pct =
    match Sys.getenv_opt "ZKOPT_PROFCHECK_MAX" with
    | Some s -> float_of_string s
    | None -> 5.0
  in
  Zkopt_workloads.Suite.check_composition ();
  let w = Zkopt_workloads.Workload.find "loop-sum" in
  let build () = w.Zkopt_workloads.Workload.build Zkopt_workloads.Workload.Quick in
  let c = Zkopt_core.Measure.prepare ~build Zkopt_core.Profile.Baseline in
  let cg = c.Zkopt_core.Measure.codegen and m = c.Zkopt_core.Measure.modul in
  let cfg = Config.risc0 in
  (* keep the reference honest: both executors must account identically *)
  let live = Executor.run cfg cg m in
  let ref_cycles = reference_run cfg cg m in
  if live.Executor.total_cycles <> ref_cycles then begin
    Seedfmt.fail ~tool "reference diverged (%d vs %d cycles) on workload %s"
      ref_cycles live.Executor.total_cycles w.Zkopt_workloads.Workload.name;
    Seedfmt.finish tool
  end;
  let t_ref =
    ns_per_run
      (Test.make ~name:"reference" (Staged.stage (fun () -> ignore (reference_run cfg cg m))))
  in
  let t_live =
    ns_per_run
      (Test.make ~name:"live" (Staged.stage (fun () -> ignore (Executor.run cfg cg m))))
  in
  let pct = ((t_live /. t_ref) -. 1.0) *. 100.0 in
  Printf.printf
    "profcheck: reference %.0f ns/run, live (hooks disabled) %.0f ns/run: \
     %+.1f%% (budget %.1f%%)\n"
    t_ref t_live pct max_pct;
  if pct > max_pct then
    Seedfmt.fail ~tool
      "disabled-hooks executor regressed %+.1f%%, budget %.1f%%" pct max_pct;
  let t_cpu =
    ns_per_run
      (Test.make ~name:"cpu"
         (Staged.stage (fun () -> ignore (Zkopt_core.Measure.run_cpu c))))
  in
  let ratio = t_cpu /. t_live in
  Printf.printf
    "profcheck: CPU model %.0f ns/run = %.2fx the no-sink executor (limit %.1fx)\n"
    t_cpu ratio max_cpu_ratio;
  if ratio > max_cpu_ratio then
    Seedfmt.fail ~tool "CPU model costs %.2fx the executor, limit %.1fx" ratio
      max_cpu_ratio;
  Seedfmt.finish tool
