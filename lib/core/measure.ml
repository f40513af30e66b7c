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
    functions it can reach ({!Zkopt_runtime.Runtime.link}: what it calls,
    the helpers of its 64-bit div/rem and shifts, and [memset_w] for
    loop-idiom), run the profile's pass pipeline over program and
    runtime together, prune unreachable functions, verify.  Split out so
    a compile cache can digest the optimized module before paying for
    code generation. *)
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

(** One priced zkVM run ({!Zkopt_zkvm.Vm.measure}), observed through an
    optional {!Zkopt_zkvm.Machine.sink}.  Returns the full
    {!Zkopt_zkvm.Vm} result including the per-segment executor trace.
    The RV32 backend's artifacts take it only for faulted, sinked and
    multi-segment runs and pinned configs; otherwise they price an
    unpriced run ({!Zkopt_zkvm.Vm.price}), with the same result. *)
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

let cpu_of_timing (r : Zkopt_cpu.Timing.result) : cpu_metrics =
  {
    cpu_cycles = r.Zkopt_cpu.Timing.cycles;
    cpu_time_s = r.Zkopt_cpu.Timing.time_s;
    mispredicts = r.Zkopt_cpu.Timing.mispredicts;
    cache_misses = r.Zkopt_cpu.Timing.cache_misses;
    cpu_exit_value = exit64 r.Zkopt_cpu.Timing.exit_value;
  }

let run_cpu ?fuel ?sink (c : compiled) : cpu_metrics =
  cpu_of_timing (fst (Zkopt_cpu.Timing.run ?fuel ?sink c.codegen c.modul))

(* ---- the metric-group codec ------------------------------------------ *)

let zk_fields (z : zk_metrics) : string list =
  [
    z.vm;
    string_of_int z.cycles;
    Printf.sprintf "%h" z.exec_time_s;
    Printf.sprintf "%h" z.prove_time_s;
    string_of_int z.segments;
    string_of_int z.paging_cycles;
    string_of_int z.page_ins;
    string_of_int z.page_outs;
    string_of_int z.loads;
    string_of_int z.stores;
    Printf.sprintf "%Lx" z.exit_value;
  ]

let cpu_fields (c : cpu_metrics) : string list =
  [
    Printf.sprintf "%h" c.cpu_cycles;
    Printf.sprintf "%h" c.cpu_time_s;
    string_of_int c.mispredicts;
    string_of_int c.cache_misses;
    Printf.sprintf "%Lx" c.cpu_exit_value;
  ]

let ( let* ) = Option.bind

let hex64 s = Int64.of_string_opt ("0x" ^ s)

let zk_of_fields = function
  | [ vm; cycles; exec; prove; segs; paging; pins; pouts; loads; stores; ev ] ->
    let* cycles = int_of_string_opt cycles in
    let* exec_time_s = float_of_string_opt exec in
    let* prove_time_s = float_of_string_opt prove in
    let* segments = int_of_string_opt segs in
    let* paging_cycles = int_of_string_opt paging in
    let* page_ins = int_of_string_opt pins in
    let* page_outs = int_of_string_opt pouts in
    let* loads = int_of_string_opt loads in
    let* stores = int_of_string_opt stores in
    let* exit_value = hex64 ev in
    Some
      {
        vm;
        cycles;
        exec_time_s;
        prove_time_s;
        segments;
        paging_cycles;
        page_ins;
        page_outs;
        loads;
        stores;
        exit_value;
      }
  | _ -> None

let cpu_of_fields = function
  | [ cycles; time; mis; misses; ev ] ->
    let* cpu_cycles = float_of_string_opt cycles in
    let* cpu_time_s = float_of_string_opt time in
    let* mispredicts = int_of_string_opt mis in
    let* cache_misses = int_of_string_opt misses in
    let* cpu_exit_value = hex64 ev in
    Some { cpu_cycles; cpu_time_s; mispredicts; cache_misses; cpu_exit_value }
  | _ -> None
