(** Valida-style zk-native instruction set.

    The defining property (Valida ISA Spec, PAPERS.md): there is no
    general-purpose register file.  Every operand is a *frame slot* — a
    memory cell addressed relative to the frame pointer — so "register
    allocation" does not exist as a compilation stage and the
    register-pressure/spill mechanism the paper measures on RV32 zkVMs
    has nowhere to live.  Each machine value occupies one 8-byte cell
    (the canonical int64 encoding of {!Zkopt_ir.Value}); cell [i] of the
    current frame lives at [fp - 8*(i+1)].

    Frame layout (frames grow down from {!Zkopt_ir.Layout.stack_top}):

    {v
      fp ->  +------------------------+  (frame base, exclusive)
             | cell 0: saved pc       |
             | cell 1: saved fp       |
             | cell 2..: params, temps|  one cell per IR virtual register
             | alloca byte area       |
      fp - frame_bytes -> ------------+
    v}

    Calls are memory-mediated: the caller evaluates arguments in its own
    frame, writes them (plus the return pc and fp) into the callee's
    frame cells, and jumps; returns read the saved pc/fp back and write
    the return value into the caller's destination cell.  All of that
    traffic lands in the memory chip's trace table — the cost model
    follows the multi-chip geometry, not RV32 conventions.

    Code addresses are instruction indices; the "pc" reported to
    provenance/attribution sinks is [4 * index] so the source map and
    the shadow-call-stack logic shared with the RV32 toolchain work
    unchanged. *)

open Zkopt_ir

(** An operand: a frame cell of the current function, or a constant
    (global addresses are resolved to constants at assembly). *)
type src = Cell of int | Const of int64

type dst = int  (** a frame cell index of the current function *)

type call = {
  target : int;  (** callee entry, instruction index *)
  callee : string;
  caller_frame : int;  (** enclosing function's frame size, bytes *)
  callee_frame : int;  (** callee frame size, bytes *)
  params : (int * Ty.t) list;  (** callee param cells, in order *)
  args : src list;  (** evaluated in the caller's frame *)
  ret : dst option;  (** caller cell receiving the return value *)
  ret_ty : Ty.t;
}

type ins =
  | Set of Ty.t * dst * src
  | Bin of Ty.t * Instr.binop * dst * src * src
  | Cmp of Ty.t * Instr.cmpop * dst * src * src
  | Select of Ty.t * dst * src * src * src  (** cond, if_true, if_false *)
  | Cast of Instr.castop * dst * src
  | Lea of dst * src * src * int * int  (** base, index, scale, offset *)
  | Load of Ty.t * dst * src  (** heap load, address operand *)
  | Store of Ty.t * src * src  (** heap store: address, value *)
  | Frame of dst * int  (** dst := fp - delta (an alloca address) *)
  | Call of call
  | Ret of (Ty.t * src) option
  | Jump of int  (** unconditional, instruction index *)
  | Cjump of src * int * int  (** cond, if_true, if_false indices *)
  | Prec of { name : string; args : src list; ret : dst option }

type func_info = {
  entry : int;  (** instruction index of the function's first instr *)
  frame_bytes : int;
  ncells : int;
  params : (int * Ty.t) list;
  ret_ty : Ty.t option;
}

type program = {
  code : ins array;
  srcmap : (string * string) array;
      (** (function, IR block) provenance of code.(i) *)
  funcs : (string, func_info) Hashtbl.t;
  globals : (string, int32) Hashtbl.t;  (** placed global addresses *)
  global_inits : (int32 * Modul.init) list;
  data_end : int32;
  main_entry : int;
  main_frame : int;
  stats : (string * int) list;  (** per-function static instruction count *)
}
