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

(* The metrics of a priced run under [cfg]. *)
let of_exec (cfg : Config.t) (exec : Machine.result) : metrics =
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

let measure ?fault ?fuel ?sink (cfg : Config.t) (cg : Codegen.t)
    (m : Modul.t) : metrics =
  of_exec cfg (Machine.run ?fault ?fuel ?sink (Machine.decode cfg cg m))

(** Price an unpriced run ({!Machine.tally}) under [cfg]: exactly what
    {!measure} returns for the same code and fuel with no fault and no
    sink, whenever that run is one segment.  [None] when it may not be:
    the tally's page size is not [cfg]'s, or its user cycles under [cfg]
    reach [cfg.segment_limit].  The priced machine closes a segment once
    its user cycles reach the limit after a retire, and they never fall
    within a segment, so a total below the limit is exactly one segment:
    every page touched is paged in once and every page dirtied is paged
    out once, at its close.  The first precompile called that [cfg] does
    not price raises {!Config.precompile_cost}'s [Invalid_argument], as
    the priced machine does at that call. *)
let price (cfg : Config.t) (t : Machine.tally) : metrics option =
  if t.Machine.page_bytes <> cfg.Config.page_bytes then None
  else begin
    let user = ref 0 and calls = ref 0 in
    Array.iteri
      (fun k n -> user := !user + (n * Config.class_cost cfg k))
      t.Machine.class_retires;
    List.iter
      (fun (name, n) ->
        user := !user + (n * Config.precompile_cost cfg name);
        calls := !calls + n)
      t.Machine.precompile_calls;
    let user = !user in
    if user >= cfg.Config.segment_limit then None
    else begin
      let paging =
        (t.Machine.pages_touched * cfg.Config.page_in_cost)
        + (t.Machine.pages_dirtied * cfg.Config.page_out_cost)
      in
      Some
        (of_exec cfg
           {
             Machine.exit_value = t.Machine.exit_value;
             total_cycles = user + paging;
             user_cycles = user;
             paging_cycles = paging;
             page_ins = t.Machine.pages_touched;
             page_outs = t.Machine.pages_dirtied;
             segments = [ { Machine.user_cycles = user; paging_cycles = paging } ];
             retired = t.Machine.retired;
             loads = t.Machine.loads;
             stores = t.Machine.stores;
             branches = t.Machine.branches;
             precompile_calls = !calls;
             faulted = false;
           })
    end
  end

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
