(** The measurement pipeline: build -> link runtime -> optimize under a
    profile -> prune -> verify -> compile -> execute on each zkVM cost
    model (and the CPU model for RQ3), collecting the paper's metrics.

    Execution here takes two paths — {!run} (a priced zkVM run on the
    decoded-stream machine) and {!run_cpu} (the CPU timing model on its
    unpriced run) — both observed through an optional
    {!Zkopt_zkvm.Machine.sink}.  The RV32 backend's artifacts also price
    zkVM metrics from an unpriced run ([Zkopt_zkvm.Vm.price]), so one
    execution serves both configs and the CPU model.  Everything else
    here is preparation (IR pipeline, codegen) or metric shaping. *)

open Zkopt_ir

type zk_metrics = {
  vm : string;
  cycles : int;
  exec_time_s : float;
  prove_time_s : float;
  segments : int;
  paging_cycles : int;
  page_ins : int;
  page_outs : int;
  loads : int;
  stores : int;
  exit_value : int64;
}

type cpu_metrics = {
  cpu_cycles : float;
  cpu_time_s : float;
  mispredicts : int;
  cache_misses : int;
  cpu_exit_value : int64;
}

type compiled = {
  modul : Modul.t;
  codegen : Zkopt_riscv.Codegen.t;
  static_instrs : int;
}

(** The IR half of {!prepare}: build a fresh module, link the runtime
    functions it can reach ({!Zkopt_runtime.Runtime.link}: what it calls,
    the helpers of its 64-bit div/rem and shifts, and [memset_w] for
    loop-idiom), run the profile's pass pipeline over program and
    runtime together, prune unreachable functions, verify.  Split out so
    a compile cache can digest the optimized module before paying for
    code generation. *)
val prepare_ir :
  ?verify:bool -> build:(unit -> Modul.t) -> Profile.t -> Modul.t

(** The codegen half of {!prepare}: lower an already-optimized module to
    an assembled RV32 program plus its static-size stat. *)
val compile_ir : Modul.t -> compiled

(** Materialize a program under a profile.  [build] must return a fresh
    module each call. *)
val prepare :
  ?verify:bool -> build:(unit -> Modul.t) -> Profile.t -> compiled

(** One priced zkVM run ({!Zkopt_zkvm.Vm.measure}): summary metrics
    ({!run_zkvm}), the harness's accounting oracles and the profiler
    call it, differing only in the sink they install.  Returns the full
    {!Zkopt_zkvm.Vm} result including the per-segment executor trace.
    The RV32 backend's artifacts call it only for faulted, sinked and
    multi-segment runs and for pinned configs; otherwise they price an
    unpriced run ({!Zkopt_zkvm.Vm.price}), which returns the same
    result. *)
val run :
  ?fault:Zkopt_zkvm.Machine.fault ->
  ?fuel:int ->
  ?sink:Zkopt_zkvm.Machine.sink ->
  Zkopt_zkvm.Config.t ->
  compiled ->
  Zkopt_zkvm.Vm.metrics

(** The single int32 -> int64 exit-value normalization point: raw RV32
    executors journal a 32-bit word; everything above the backend
    boundary carries the canonical zero-extended int64. *)
val exit64 : int32 -> int64

(** Shape a raw {!Zkopt_zkvm.Vm} result into the paper's metric row. *)
val zk_of_vm : Zkopt_zkvm.Vm.metrics -> zk_metrics

val run_zkvm :
  ?fault:Zkopt_zkvm.Machine.fault ->
  ?fuel:int ->
  Zkopt_zkvm.Config.t ->
  compiled ->
  zk_metrics

(** The RQ3 traditional-CPU contrast model over the same RV32 image. *)
val run_cpu : ?fuel:int -> ?sink:Zkopt_zkvm.Machine.sink -> compiled -> cpu_metrics

(** Shape a CPU-model result into its metric group. *)
val cpu_of_timing : Zkopt_cpu.Timing.result -> cpu_metrics

(** {2 The metric-group codec}

    One exact text codec for a metric group, as a list of fields: ints
    in decimal, floats in hexadecimal ([%h], so every non-NaN float
    round-trips bit for bit), exit values in [%Lx].  The sweep
    checkpoint joins the fields with tabs; a kept run in the compile
    cache's first level ([Backend.compile_cached]) joins
    them with spaces.  The decoders are total: a wrong field count or an
    unparsable field is [None], never an exception. *)

val zk_fields : zk_metrics -> string list

val zk_of_fields : string list -> zk_metrics option

val cpu_fields : cpu_metrics -> string list

val cpu_of_fields : string list -> cpu_metrics option
