(** A basic block: a label, a straight-line instruction list and a
    terminator.  Blocks are mutable; passes edit them in place. *)

type t = {
  label : string;
  mutable instrs : Instr.t list;
  mutable term : Instr.term;
}

let create ?(instrs = []) ?(term = Instr.Ret None) label =
  { label; instrs; term }

let successors b = Instr.successors b.term

let instr_count b = List.length b.instrs
