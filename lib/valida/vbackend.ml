(** The Valida-style backend as a {!Zkopt_backend.Backend.t}.

    Registers itself under ["valida"] when this library is linked.
    Linkage is forced by callers invoking {!ensure} (dune drops
    libraries nothing references); the harness itself stays free of any
    valida dependency — it only sees {!Zkopt_backend.Backend.t} values. *)

open Zkopt_ir
module Backend = Zkopt_backend.Backend
module Registry = Zkopt_backend.Registry
module Measure = Zkopt_core.Measure

let schema = "valida-cg1"
let cfg = Vconfig.valida

let zk_of_run (r : Vexec.result) : Measure.zk_metrics =
  {
    Measure.vm = cfg.Vconfig.name;
    cycles = r.Vexec.total_rows;
    exec_time_s = Vexec.exec_time_s cfg r;
    prove_time_s = (Vprover.prove cfg r).Vprover.time_s;
    segments = List.length r.Vexec.segments;
    (* no paging dimension exists on this ISA *)
    paging_cycles = 0;
    page_ins = 0;
    page_outs = 0;
    loads = r.Vexec.mem_read_rows;
    stores = r.Vexec.mem_write_rows;
    exit_value = r.Vexec.exit_value;
  }

(* The artifact is the decoded program: [of_program] decodes once, when
   the artifact is built, and the disk store keeps the decoded form, so
   an artifact read back runs without decoding again. *)
let of_code (code : Vexec.code) : Backend.compiled =
  let measure ~vm ?fault ?fuel ?sink () =
    if not (String.equal vm cfg.Vconfig.name) then
      invalid_arg
        (Printf.sprintf "valida artifact cannot price backend %S" vm);
    let r = Vexec.run ?fault ?fuel ?sink code in
    (* per-segment committed area = the sum of the three chips' padded
       tables, exactly as {!Vprover.prove} prices them *)
    let pad = Zkopt_zkvm.Prover.padded ~min_po2:cfg.Vconfig.min_po2 in
    let seg_padded =
      List.map
        (fun (s : Vexec.segment) ->
          pad s.Vexec.cpu_rows + pad s.Vexec.alu_rows + pad s.Vexec.mem_rows)
        r.Vexec.segments
    in
    {
      Backend.zk = zk_of_run r;
      accounting = Vexec.check_accounting r;
      faulted = r.Vexec.faulted;
      seg_padded;
    }
  in
  {
    Backend.static_instrs = (fun () -> code.Vexec.n);
    site_of_pc = Vexec.site_of_pc code;
    (* no register file -> no allocator -> spills cannot exist *)
    spills = (fun () -> []);
    measure;
    measure_cpu = None;
    encode = (fun () -> Some (Marshal.to_string code []));
  }

let of_program (p : Visa.program) : Backend.compiled = of_code (Vexec.decode cfg p)

let compile (m : Modul.t) : Backend.compiled = of_program (Vlower.lower m)

let decode (_m : Modul.t) (s : string) : Backend.compiled option =
  try Some (of_code (Marshal.from_string s 0)) with _ -> None

let backend : Backend.t =
  {
    Backend.name = cfg.Vconfig.name;
    doc = "zk-native frame-cell ISA, multi-chip prover (Valida-style)";
    zk_native = true;
    schema;
    segment_pad = Vprover.table_pad cfg;
    compile;
    decode;
  }

let () = Registry.register backend

(** Referencing this forces the library (and so the registration above)
    to be linked. *)
let ensure () = ()
