(** The hash-table form of {!Zkopt_analysis.Defs}, kept as its oracle.

    Three [Hashtbl]s per call, keyed by register.  [test/test_analysis.ml]
    requires the library's register-indexed arrays to answer exactly as
    this does on every register of random and suite functions.

    A register with exactly one static definition and which is not a
    function parameter behaves like an SSA value: its defining instruction
    fully determines it. *)

open Zkopt_ir

(** Registers assigned anywhere in the function, with static def counts
    (parameters count as one def). *)
let def_counts (f : Func.t) =
  let counts = Hashtbl.create 64 in
  let bump r = Hashtbl.replace counts r (1 + Option.value ~default:0 (Hashtbl.find_opt counts r)) in
  List.iter (fun (r, _) -> bump r) f.Func.params;
  Func.iter_instrs f (fun _ i -> Option.iter bump (Instr.def i));
  counts

type t = {
  counts : (Value.reg, int) Hashtbl.t;
  def_instr : (Value.reg, Instr.t) Hashtbl.t;  (* only for single-def regs *)
  params : (Value.reg, unit) Hashtbl.t;
}

let compute (f : Func.t) : t =
  let counts = def_counts f in
  let params = Hashtbl.create 8 in
  List.iter (fun (r, _) -> Hashtbl.replace params r ()) f.Func.params;
  let def_instr = Hashtbl.create 64 in
  Func.iter_instrs f (fun _ i ->
      match Instr.def i with
      | Some r when Hashtbl.find_opt counts r = Some 1 && not (Hashtbl.mem params r) ->
        Hashtbl.replace def_instr r i
      | _ -> ());
  { counts; def_instr; params }

let is_param t r = Hashtbl.mem t.params r

(** Register defined exactly once, by an instruction (not a parameter). *)
let is_single_def t r =
  Hashtbl.find_opt t.counts r = Some 1 && not (is_param t r)

let def_of t r = Hashtbl.find_opt t.def_instr r

(** A value that is the same wherever it is read: an immediate, a global
    address, a never-reassigned parameter, or a single-def register.
    (A parameter that is also written by an instruction has several defs
    and is *not* stable.) *)
let is_stable t = function
  | Value.Imm _ | Value.Glob _ -> true
  | Value.Reg r -> Hashtbl.find_opt t.counts r = Some 1

(** Count uses of every register across the function (operands of
    instructions and terminators). *)
let use_counts (f : Func.t) =
  let uses = Hashtbl.create 64 in
  let bump r = Hashtbl.replace uses r (1 + Option.value ~default:0 (Hashtbl.find_opt uses r)) in
  Func.iter_blocks f (fun b ->
      List.iter (fun i -> List.iter bump (Instr.uses i)) b.Block.instrs;
      List.iter bump (Instr.term_uses b.Block.term));
  uses
