(** Types of IR values.

    The IR is deliberately small: zkVM guests target RV32IM, which has no
    native floating point, so the only first-class types are 32-bit
    integers, 64-bit integers and 32-bit pointers.  Floating point is
    provided by the softfloat runtime library operating on [I64] bit
    patterns, mirroring how zkVMs emulate FP (paper, Appendix A). *)

type t =
  | I32  (** 32-bit integer (also the type of booleans, as 0/1) *)
  | I64  (** 64-bit integer; lowered to a register pair on RV32 *)
  | Ptr  (** 32-bit byte address *)

let equal (a : t) (b : t) = a = b

(* Size in bytes of a value of this type when stored in guest memory. *)
let size_bytes = function I32 | Ptr -> 4 | I64 -> 8

let to_string = function I32 -> "i32" | I64 -> "i64" | Ptr -> "ptr"
