(** Definition-shape helpers for the non-SSA IR.

    A register with exactly one static definition and which is not a
    function parameter behaves like an SSA value: its defining instruction
    fully determines it.  Most scalar optimizations restrict themselves to
    such registers and treat multi-def registers (loop variables written
    by [Mov]) as barriers.

    The tables are arrays indexed by register, sized by the function's
    largest defined register when {!compute} runs.  A register past the
    end (one minted after [compute], or never defined) has no def.
    [test/test_analysis.ml] pins this to the hash-table form kept as
    [Zkopt_oracle.Ref_defs]. *)

open Zkopt_ir

type t = {
  counts : int array;  (** static defs per register, a parameter counts one *)
  params : Bytes.t;  (** ['\001'] at each parameter register *)
  def_instr : Instr.t option array;  (** only for single-def registers *)
}

(* The register [i] defines, or -1; unlike [Instr.def], allocates nothing. *)
let def_reg (i : Instr.t) =
  match i with
  | Bin { dst; _ } | Cmp { dst; _ } | Select { dst; _ } | Mov { dst; _ }
  | Cast { dst; _ } | Load { dst; _ } | Addr { dst; _ } | Alloca { dst; _ }
  | Call { dst = Some dst; _ } | Precompile { dst = Some dst; _ } ->
    dst
  | Call { dst = None; _ } | Precompile { dst = None; _ } | Store _ -> -1

let iter_defs (f : Func.t) fn =
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun i ->
          let r = def_reg i in
          if r >= 0 then fn r i)
        b.Block.instrs)
    f.Func.blocks

let compute (f : Func.t) : t =
  let n = List.fold_left (fun n (r, _) -> max n (r + 1)) 0 f.Func.params in
  let n = ref n in
  iter_defs f (fun r _ -> if r >= !n then n := r + 1);
  let counts = Array.make !n 0 and params = Bytes.make !n '\000' in
  List.iter
    (fun (r, _) ->
      counts.(r) <- counts.(r) + 1;
      Bytes.set params r '\001')
    f.Func.params;
  iter_defs f (fun r _ -> counts.(r) <- counts.(r) + 1);
  (* a parameter counts one def, so a register an instruction defines
     once is never a parameter *)
  let def_instr = Array.make !n None in
  iter_defs f (fun r i -> if counts.(r) = 1 then def_instr.(r) <- Some i);
  { counts; params; def_instr }

let in_range t r = r >= 0 && r < Array.length t.counts

(** Static definitions of [r], a parameter counting one. *)
let count t r = if in_range t r then t.counts.(r) else 0

let is_param t r = in_range t r && Bytes.get t.params r <> '\000'

(** Register defined exactly once, by an instruction (not a parameter). *)
let is_single_def t r = count t r = 1 && not (is_param t r)

let def_of t r = if in_range t r then t.def_instr.(r) else None

(** A value that is the same wherever it is read: an immediate, a global
    address, a never-reassigned parameter, or a single-def register.
    (A parameter that is also written by an instruction has several defs
    and is *not* stable.) *)
let is_stable t = function
  | Value.Imm _ | Value.Glob _ -> true
  | Value.Reg r -> count t r = 1

(** Count uses of every register across the function (operands of
    instructions and terminators). *)
let use_counts (f : Func.t) =
  let uses = Hashtbl.create 64 in
  let bump r = Hashtbl.replace uses r (1 + Option.value ~default:0 (Hashtbl.find_opt uses r)) in
  Func.iter_blocks f (fun b ->
      List.iter (fun i -> List.iter bump (Instr.uses i)) b.Block.instrs;
      List.iter bump (Instr.term_uses b.Block.term));
  uses
