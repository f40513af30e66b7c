(** The RV32 backend family: the existing codegen path (isel -> linear
    scan regalloc -> RV32 assembly -> paging/segmented executor ->
    single-trace STARK prover), instantiated once per cost config.

    [risc0] and [sp1] share one compiled artifact per module digest —
    they execute the identical instruction image and differ only in how
    {!Zkopt_zkvm.Config} prices it — so {!Backend.compiled.measure}
    resolves the config by backend name at measurement time. *)

open Zkopt_ir
module Measure = Zkopt_core.Measure
module Config = Zkopt_zkvm.Config

let schema = "rv32-cg1"

(** Wrap an assembled RV32 compilation as a family-shared artifact.
    [?config] pins the cost config instead of resolving it from the
    backend name at measurement time — used for ad-hoc config variants
    (e.g. the fuzz engine's dense-shard §4.2 reproduction) that are not
    in {!Config.all}. *)
let of_compiled ?config (c : Measure.compiled) : Backend.compiled =
  let measure ~vm ?fault ?fuel ?sink () =
    let cfg =
      match config with Some cfg -> cfg | None -> Config.by_name vm
    in
    let raw = Measure.run ?fault ?fuel ?sink cfg c in
    (* pad each segment as the prover does: the settlement models must
       price the trace the prover actually commits *)
    let seg_padded =
      List.map
        (fun (s : Zkopt_zkvm.Machine.segment) ->
          Zkopt_zkvm.Prover.padded ~min_po2:cfg.Config.min_po2
            (s.Zkopt_zkvm.Machine.user_cycles + s.paging_cycles))
        raw.Zkopt_zkvm.Vm.exec.Zkopt_zkvm.Machine.segments
    in
    {
      Backend.zk = Measure.zk_of_vm raw;
      accounting = Zkopt_zkvm.Vm.check_accounting cfg raw;
      faulted = raw.Zkopt_zkvm.Vm.exec.Zkopt_zkvm.Machine.faulted;
      seg_padded;
    }
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
    measure_cpu = Some (fun ?fuel ?sink () -> Measure.run_cpu ?fuel ?sink c);
    encode =
      (fun () ->
        Some
          (Marshal.to_string
             ( c.Measure.codegen,
               c.Measure.static_instrs,
               c.Measure.modul.Modul.globals )
             []));
  }

let compile ?config (m : Modul.t) : Backend.compiled =
  of_compiled ?config (Measure.compile_ir m)

(* An encoded artifact carries the module's globals, the only part of
   the IR the machine and the CPU model read, so it decodes without the
   module: the rebuilt one has the globals and no functions. *)
let decode ?config (_ : Modul.t) (s : string) : Backend.compiled option =
  try
    let ( (codegen : Zkopt_riscv.Codegen.t),
          (static_instrs : int),
          (globals : Modul.global list) ) =
      Marshal.from_string s 0
    in
    Some
      (of_compiled ?config
         { Measure.modul = { Modul.globals; funcs = [] }; codegen; static_instrs })
  with _ -> None

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
    decode = decode ?config;
  }
