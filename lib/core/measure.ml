(** The measurement pipeline: build -> link runtime -> optimize under a
    profile -> prune -> verify -> compile -> execute on each zkVM cost
    model (and the CPU model for RQ3), collecting the paper's metrics. *)

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
    (so the whole image is optimized together, like LTO), run the
    profile's pass pipeline, prune unreachable functions, verify.  Split
    out so a compile cache can digest the optimized module before paying
    for code generation. *)
let prepare_ir ?(verify = true) ~(build : unit -> Modul.t)
    (profile : Profile.t) : Modul.t =
  let m = build () in
  Zkopt_runtime.Runtime.link m;
  Profile.apply profile m;
  ignore (Zkopt_passes.Pass.run_one "globaldce" m);
  if verify then Verify.check m;
  m

(** The codegen half of {!prepare}: lower an already-optimized module to
    an assembled RV32 program plus its static-size stat. *)
let compile_ir (m : Modul.t) : compiled =
  let codegen = Zkopt_riscv.Codegen.compile m in
  let static_instrs =
    List.fold_left
      (fun acc (s : Zkopt_riscv.Codegen.func_stats) ->
        acc + s.Zkopt_riscv.Codegen.instrs)
      0 codegen.Zkopt_riscv.Codegen.stats
  in
  { modul = m; codegen; static_instrs }

(** Materialize a program under a profile.  [build] must return a fresh
    module each call.  Unreachable functions are pruned for every
    profile including the baseline. *)
let prepare ?(verify = true) ~(build : unit -> Modul.t) (profile : Profile.t) :
    compiled =
  compile_ir (prepare_ir ~verify ~build profile)

(** The one raw zkVM measurement path: every caller — summary metrics
    ({!run_zkvm}), harness accounting oracles, backends, the profiler —
    goes through here, differing only in the {!Zkopt_zkvm.Machine.sink}
    it installs.  Returns the full {!Zkopt_zkvm.Vm} result including the
    per-segment executor trace. *)
let run ?fault ?fuel ?sink (cfg : Zkopt_zkvm.Config.t) (c : compiled) :
    Zkopt_zkvm.Vm.metrics =
  Zkopt_zkvm.Vm.measure ?fault ?fuel ?sink cfg c.codegen c.modul

(** The single int32 -> int64 exit-value normalization point.  Raw RV32
    executors journal a 32-bit word; everything above the backend boundary
    carries the canonical zero-extended int64 (the {!Zkopt_ir.Value}
    convention), so exit values from different backends compare with
    [Int64.equal] directly. *)
let exit64 (v : int32) : int64 = Eval.norm32 (Int64.of_int32 v)

let zk_of_vm (r : Zkopt_zkvm.Vm.metrics) : zk_metrics =
  let e = r.Zkopt_zkvm.Vm.exec in
  {
    vm = r.Zkopt_zkvm.Vm.vm;
    cycles = r.Zkopt_zkvm.Vm.cycles;
    exec_time_s = r.Zkopt_zkvm.Vm.exec_time_s;
    prove_time_s = r.Zkopt_zkvm.Vm.prove_time_s;
    segments = r.Zkopt_zkvm.Vm.segments;
    paging_cycles = r.Zkopt_zkvm.Vm.paging_cycles;
    page_ins = e.Zkopt_zkvm.Machine.page_ins;
    page_outs = e.Zkopt_zkvm.Machine.page_outs;
    loads = e.Zkopt_zkvm.Machine.loads;
    stores = e.Zkopt_zkvm.Machine.stores;
    exit_value = exit64 r.Zkopt_zkvm.Vm.exit_value;
  }

let run_zkvm ?fault ?fuel (cfg : Zkopt_zkvm.Config.t) (c : compiled) : zk_metrics =
  zk_of_vm (run ?fault ?fuel cfg c)

let run_cpu ?fuel ?sink (c : compiled) : cpu_metrics =
  let r = Zkopt_cpu.Timing.run ?fuel ?sink c.codegen c.modul in
  {
    cpu_cycles = r.Zkopt_cpu.Timing.cycles;
    cpu_time_s = r.Zkopt_cpu.Timing.time_s;
    mispredicts = r.Zkopt_cpu.Timing.mispredicts;
    cache_misses = r.Zkopt_cpu.Timing.cache_misses;
    cpu_exit_value = exit64 r.Zkopt_cpu.Timing.exit_value;
  }
