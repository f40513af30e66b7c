(** The RV32 guest ABI shared by the decoded machine
    ({!Zkopt_zkvm.Machine}), the CPU timing model, Valida and the
    harness: the run-failure exceptions and the syscall convention.

    Syscall convention (register a7):
    - 0: halt; a0 = exit value
    - 1000 + i: precompile number [i] in {!Zkopt_ir.Extern.signatures}
      order, pointer/scalar args in a0..a3, optional result in a0. *)

exception Trap of string

(** Raised when a bounded run exhausts its instruction budget; carries
    the budget that was exhausted.  Distinct from {!Trap} so callers
    (retry policies in particular) can tell fuel exhaustion apart from
    genuine faults without string matching. *)
exception Out_of_fuel of int

(** The instruction budget of a run that names none: the zkVM machine,
    the CPU model, Valida and the sweep's first attempt all default to
    it. *)
val default_fuel : int

val syscall_halt : int
val syscall_precompile_base : int

(** {!Zkopt_ir.Extern.signatures} as a flat array in syscall-id order,
    computed once at module load — syscall dispatch indexes it directly. *)
val precompile_signatures : (string * int) array

(** Syscall id of a precompile name; raises [Invalid_argument] on
    unknown names. *)
val precompile_syscall_id : string -> int
