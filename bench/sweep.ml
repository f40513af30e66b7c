(** The shared measurement sweep: 58 programs x 71 profiles x N backends,
    plus the CPU model for the baseline and single-pass profiles (RQ3).
    Results are computed once and shared by every RQ1/RQ2/RQ3 block.

    It measures the paper's risc0 + sp1 pair; the cross-ISA experiment
    ([exp_isa]) measures its own cases on risc0, sp1 and the zk-native
    valida backend.

    The sweep itself runs on the fault-tolerant harness ([lib/harness]):
    a cell that miscompiles, traps, or fails an accounting oracle is
    quarantined with a typed error instead of aborting the remaining
    ~8,000 cells, and fuel exhaustion retries with an escalating
    budget. *)

open Zkopt_core
module Harness = Zkopt_harness.Harness
module Cell = Zkopt_harness.Cell

type point = Zkopt_harness.Cell.point

type t = {
  points : (string * string, point) Hashtbl.t; (* (program, profile) *)
  programs : Zkopt_workloads.Workload.t list;
  size : Zkopt_workloads.Workload.size;
  quarantined : Zkopt_harness.Error.t list;
}

let profile_names = List.map Profile.name Profile.all_71

(** Run the full sweep with progress on stderr.  Failed cells land in
    [quarantined]; more than the harness's default failure budget of
    them aborts with {!Harness.Budget_exceeded}.  [jobs] worker domains
    execute cells in parallel (results are identical at any job
    count). *)
let run ~jobs ~size : t =
  let o =
    Harness.run { (Harness.default ~size) with Harness.progress = true; jobs }
  in
  if o.Harness.quarantined <> [] then
    Printf.eprintf "%s\n%!" (Harness.quarantine_report o.Harness.quarantined);
  {
    points = o.Harness.points;
    programs = o.Harness.programs;
    size;
    quarantined = o.Harness.quarantined;
  }

let get t program profile = Hashtbl.find t.points (program, profile)

(** Backend selectors: the sweep's two columns. *)
type vm = [ `R0 | `Sp1 ]

let vm_name : vm -> string = function `R0 -> "risc0" | `Sp1 -> "sp1"

let zk (p : point) (name : string) = Cell.zk p name
let zk_of (p : point) (vm : vm) = Cell.zk p (vm_name vm)
let r0 (p : point) = zk p "risc0"
let sp1 (p : point) = zk p "sp1"

type metric = Cycles | Exec | Prove

let value (vm : vm) metric (p : point) =
  let zk = zk_of p vm in
  match metric with
  | Cycles -> float_of_int zk.Measure.cycles
  | Exec -> zk.Measure.exec_time_s
  | Prove -> zk.Measure.prove_time_s

(** Improvement (%) of [profile] over the baseline for one program. *)
let improvement t ~program ~profile ~vm ~metric =
  let base = value vm metric (get t program "baseline") in
  let v = value vm metric (get t program profile) in
  Zkopt_stats.Stats.improvement_pct ~base v

(** CPU-model improvement (%) over baseline (RQ3). *)
let cpu_improvement t ~program ~profile =
  match
    ((get t program "baseline").Cell.cpu, (get t program profile).Cell.cpu)
  with
  | Some base, Some v ->
    Some
      (Zkopt_stats.Stats.improvement_pct ~base:base.Measure.cpu_time_s
         v.Measure.cpu_time_s)
  | _ -> None

let all_programs t = List.map (fun w -> w.Zkopt_workloads.Workload.name) t.programs
