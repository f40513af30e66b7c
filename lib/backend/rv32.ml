(** The RV32 backend family: the existing codegen path (isel -> linear
    scan regalloc -> RV32 assembly -> paging/segmented executor ->
    single-trace STARK prover), instantiated once per cost config.

    [risc0] and [sp1] share one compiled artifact per module digest —
    they execute the identical instruction image and differ only in how
    {!Zkopt_zkvm.Config} prices it — so {!Backend.compiled.measure}
    resolves the config by backend name at measurement time, and the
    artifact executes the image once for both: it keeps the tally of
    one unpriced run per fuel ({!Zkopt_zkvm.Machine.tally}, which also
    drives the CPU model) and prices each config from it
    ({!Zkopt_zkvm.Vm.price}). *)

open Zkopt_ir
module Measure = Zkopt_core.Measure
module Config = Zkopt_zkvm.Config
module Machine = Zkopt_zkvm.Machine
module Vm = Zkopt_zkvm.Vm

let schema = "rv32-cg1"

(* What an artifact keeps of its unpriced run at one fuel. *)
type kept = Tally of Machine.tally | Long  (* more than [longest] retires *)

(* Every instruction costs at least one cycle under every config in
   {!Config.all} (a [test_price] case checks it), so a run of more
   retires than the longest segment limit reaches every limit. *)
let longest =
  List.fold_left (fun l (cfg : Config.t) -> max l cfg.Config.segment_limit) 0 Config.all

(** Wrap an assembled RV32 compilation as a family-shared artifact.
    [?config] pins the cost config instead of resolving it from the
    backend name at measurement time — used for ad-hoc config variants
    (e.g. the fuzz engine's dense-shard §4.2 reproduction) that are not
    in {!Config.all}.

    An unfaulted, unsinked [measure] of an unpinned artifact prices the
    tally of an unpriced run at its resolved fuel: the one an unsinked
    [measure_cpu] or an earlier [measure] at that fuel made, or else a
    new one.  A run longer than one segment under the config ([price]
    gives [None]) takes the priced machine; so do faulted and sinked
    calls and every call of a pinned artifact, whose configs (the dense
    fuzz config's 2^10-cycle shards) would send almost every tally
    there.  Pricing returns exactly the priced machine's result, and an
    unpriced run raises what a priced one would, because every config in
    {!Config.all} prices every precompile.  At most one tally per fuel
    is kept, each a few words; the run's per-instruction counts are
    dropped with the run.  An unpriced run that [measure] starts stops
    after [longest] retires, past which no config could price it, and
    the artifact keeps only that fact: a longer run then costs its
    priced runs plus [longest] unpriced retires, not a whole run. *)
let of_compiled ?config (c : Measure.compiled) : Backend.compiled =
  let mu = Mutex.create () and runs = Hashtbl.create 1 in
  let keep fuel k = Mutex.protect mu (fun () -> Hashtbl.replace runs fuel k) in
  let unpriced cfg fuel =
    match Mutex.protect mu (fun () -> Hashtbl.find_opt runs fuel) with
    | Some k -> k
    | None ->
      let code = Machine.decode cfg c.Measure.codegen c.Measure.modul in
      let k =
        if fuel <= longest then Tally (Machine.tally ~fuel code)
        else
          match Machine.tally ~fuel:longest code with
          | t -> Tally t
          | exception Zkopt_riscv.Emulator.Out_of_fuel _ -> Long
      in
      keep fuel k;
      k
  in
  let resolved = Option.value ~default:Zkopt_riscv.Emulator.default_fuel in
  let measure ~vm ?fault ?fuel ?sink () =
    let cfg = match config with Some cfg -> cfg | None -> Config.by_name vm in
    let raw =
      match (config, fault, sink) with
      | None, None, None -> (
        let fuel = resolved fuel in
        match unpriced cfg fuel with
        | Tally t -> (
          match Vm.price cfg t with Some raw -> raw | None -> Measure.run ~fuel cfg c)
        | Long -> Measure.run ~fuel cfg c)
      | _ -> Measure.run ?fault ?fuel ?sink cfg c
    in
    Result.iter_error
      (fun msg -> raise (Backend.Accounting msg))
      (Vm.check_accounting cfg raw);
    (* pad each segment as the prover does: the settlement models must
       price the trace the prover actually commits *)
    let seg_padded =
      List.map
        (fun (s : Machine.segment) ->
          Zkopt_zkvm.Prover.padded ~min_po2:cfg.Config.min_po2
            (s.Machine.user_cycles + s.paging_cycles))
        raw.Vm.exec.Machine.segments
    in
    {
      Backend.zk = Measure.zk_of_vm raw;
      faulted = raw.Vm.exec.Machine.faulted;
      seg_padded;
    }
  in
  let measure_cpu ?fuel ?sink () =
    let r, t = Zkopt_cpu.Timing.run ?fuel ?sink c.Measure.codegen c.Measure.modul in
    if Option.is_none sink && Option.is_none config then keep (resolved fuel) (Tally t);
    Measure.cpu_of_timing r
  in
  let program = c.Measure.codegen.Zkopt_riscv.Codegen.program in
  {
    Backend.static_instrs = (fun () -> c.Measure.static_instrs);
    site_of_pc = (fun pc -> Zkopt_riscv.Asm.site_of_pc program pc);
    spills =
      (fun () ->
        List.map
          (fun (s : Zkopt_riscv.Codegen.func_stats) ->
            ( s.Zkopt_riscv.Codegen.fname,
              s.Zkopt_riscv.Codegen.spill_loads
              + s.Zkopt_riscv.Codegen.spill_stores ))
          c.Measure.codegen.Zkopt_riscv.Codegen.stats);
    measure;
    measure_cpu = Some measure_cpu;
  }

let compile ?config (m : Modul.t) : Backend.compiled =
  of_compiled ?config (Measure.compile_ir m)

(** [backend cfg ~doc] builds a registry-shape backend for a config in
    {!Config.all}; [~fixed:true] instead pins [cfg] into the artifact
    (and gives the backend a private schema so it never shares cached
    artifacts priced under another name's config). *)
let backend ?(fixed = false) (cfg : Config.t) ~doc : Backend.t =
  let config = if fixed then Some cfg else None in
  {
    Backend.name = cfg.Config.name;
    doc;
    zk_native = false;
    schema = (if fixed then schema ^ "@" ^ cfg.Config.name else schema);
    segment_pad =
      (fun n -> Zkopt_zkvm.Prover.padded ~min_po2:cfg.Config.min_po2 n - n);
    compile = compile ?config;
    decode = (fun _ _ -> None);
  }
