(** Convenience front door: compile once, execute + prove on a zkVM
    configuration, and collect the paper's three metrics (cycle count,
    executor wall time, proving wall time). *)

open Zkopt_ir
open Zkopt_riscv

type metrics = {
  vm : string;
  cycles : int;
  exec_time_s : float;
  prove_time_s : float;
  segments : int;
  paging_cycles : int;
  exit_value : int32;
  exec : Machine.result;
}

(** Simulated executor wall-clock time in seconds. *)
let exec_time_s (cfg : Config.t) (r : Machine.result) =
  ((float_of_int r.total_cycles *. cfg.Config.exec_ns_per_cycle)
  +. cfg.Config.exec_overhead_ns)
  *. 1e-9

let measure ?fault ?fuel ?sink (cfg : Config.t) (cg : Codegen.t)
    (m : Modul.t) : metrics =
  let exec = Machine.run ?fault ?fuel ?sink (Machine.decode cfg cg m) in
  let prove = Prover.prove cfg exec in
  {
    vm = cfg.Config.name;
    cycles = exec.Machine.total_cycles;
    exec_time_s = exec_time_s cfg exec;
    prove_time_s = prove.Prover.time_s;
    segments = prove.Prover.segments;
    paging_cycles = exec.Machine.paging_cycles;
    exit_value = exec.Machine.exit_value;
    exec;
  }

(** Accounting conservation oracles over a raw executor result.  In a
    healthy executor both identities hold exactly:

    - paging cycles = page-ins * page_in_cost + page-outs * page_out_cost
    - total cycles  = sum over segments of (user + paging) cycles

    A violation means the executor produced a trace whose cost totals do
    not reconcile with its own event journal — the accounting-bug shape
    of zkVM soundness failures (e.g. {!Machine.fault}'s
    [Dropped_page_out] and [Truncated_final_segment]). *)
let check_accounting (cfg : Config.t) (r : metrics) : (unit, string) result =
  let e = r.exec in
  let expected_paging =
    (e.Machine.page_ins * cfg.Config.page_in_cost)
    + (e.Machine.page_outs * cfg.Config.page_out_cost)
  in
  if e.Machine.paging_cycles <> expected_paging then
    Error
      (Printf.sprintf
         "paging cycles %d do not reconcile with events (%d ins * %d + %d \
          outs * %d = %d)"
         e.Machine.paging_cycles e.Machine.page_ins cfg.Config.page_in_cost
         e.Machine.page_outs cfg.Config.page_out_cost expected_paging)
  else
    let seg_total =
      List.fold_left
        (fun acc (s : Machine.segment) ->
          acc + s.Machine.user_cycles + s.Machine.paging_cycles)
        0 e.Machine.segments
    in
    if seg_total <> e.Machine.total_cycles then
      Error
        (Printf.sprintf
           "segment trace sums to %d cycles but the executor reported %d"
           seg_total e.Machine.total_cycles)
    else Ok ()
