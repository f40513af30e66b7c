(** IR operands.

    Runtime representation convention (shared by the interpreter, constant
    folding, and the RV32 emulator): every value is carried as an [int64].
    [I32]/[Ptr] values are kept zero-extended in the low 32 bits; [I64]
    values use the full word.  [Eval] implements all arithmetic under this
    convention. *)

type reg = int
(** Virtual register id, unique within a function. *)

type t =
  | Reg of reg            (** a virtual register *)
  | Imm of int64          (** an immediate (normalized per its use type) *)
  | Glob of string        (** the address of a named global *)

let reg r = Reg r
let imm i = Imm (Int64.of_int i)
let imm64 i = Imm i

let equal a b =
  match a, b with
  | Reg r1, Reg r2 -> r1 = r2
  | Imm i1, Imm i2 -> Int64.equal i1 i2
  | Glob g1, Glob g2 -> String.equal g1 g2
  | (Reg _ | Imm _ | Glob _), _ -> false

let to_string = function
  | Reg r -> Printf.sprintf "%%r%d" r
  | Imm i -> Int64.to_string i
  | Glob g -> "@" ^ g

let pp fmt v = Format.pp_print_string fmt (to_string v)
