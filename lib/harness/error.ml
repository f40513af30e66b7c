(** Typed error taxonomy for the fault-tolerant sweep harness.

    Every failure mode in the measurement stack — interpreter and
    emulator traps, fuel exhaustion, decoder/assembler/instruction-
    selection errors, IR verification failures, and the two oracle
    violations (checksum divergence, accounting divergence) — classifies
    into a structured {!kind}, tagged with the (program, profile, vm)
    coordinates of the sweep cell it originated from.  The taxonomy is
    what lets the retry policy distinguish transient failures (fuel
    exhaustion) from deterministic ones without string matching. *)

(** Where in the sweep matrix a failure happened.  [vm] is ["risc0"],
    ["sp1"], ["cpu"], or ["-"] when the failure is not VM-specific
    (e.g. the compile/optimize stage). *)
type coord = { program : string; profile : string; vm : string }

type kind =
  | Out_of_fuel of int  (** exhausted budget; 0 when unknown (IR interp) *)
  | Emulator_trap of string
  | Decode_error of int32
  | Asm_error of string
  | Isel_unsupported of string
  | Ill_formed of string
  | Miscompile of { expected : int64; got : int64; oracle : string }
      (** checksum divergence flagged by a differential oracle *)
  | Accounting_violation of string
      (** executor cost accounting failed a conservation check *)
  | Uncaught of string  (** anything else, stringified *)

type t = { coord : coord; kind : kind }

(** Raised by the harness's differential checksum oracle. *)
exception Divergence of { expected : int64; got : int64; oracle : string }

(** Raised by a backend's accounting conservation oracle. *)
exception Accounting = Zkopt_backend.Backend.Accounting

(** Wrapper used by the harness to tag an exception with the VM whose
    measurement raised it; [classify] unwraps it transparently. *)
exception In_vm of string * exn

let rec classify : exn -> kind = function
  | In_vm (_, e) -> classify e
  | Zkopt_riscv.Emulator.Out_of_fuel fuel -> Out_of_fuel fuel
  | Zkopt_ir.Interp.Out_of_fuel -> Out_of_fuel 0
  | Zkopt_riscv.Emulator.Trap msg -> Emulator_trap msg
  | Zkopt_riscv.Isa.Decode_error w -> Decode_error w
  | Zkopt_riscv.Asm.Asm_error msg -> Asm_error msg
  | Zkopt_riscv.Isel.Unsupported msg -> Isel_unsupported msg
  | Zkopt_ir.Verify.Ill_formed msg -> Ill_formed msg
  | Divergence { expected; got; oracle } -> Miscompile { expected; got; oracle }
  | Accounting msg -> Accounting_violation msg
  | e -> Uncaught (Printexc.to_string e)

let vm_of_exn : exn -> string option = function
  | In_vm (vm, _) -> Some vm
  | _ -> None

(** Only fuel exhaustion is transient: doubling the budget can fix it.
    Everything else is deterministic and retrying would just repeat the
    same failure. *)
let retryable = function Out_of_fuel _ -> true | _ -> false

let kind_name = function
  | Out_of_fuel _ -> "out-of-fuel"
  | Emulator_trap _ -> "emulator-trap"
  | Decode_error _ -> "decode-error"
  | Asm_error _ -> "asm-error"
  | Isel_unsupported _ -> "isel-unsupported"
  | Ill_formed _ -> "ill-formed-ir"
  | Miscompile _ -> "miscompile"
  | Accounting_violation _ -> "accounting-violation"
  | Uncaught _ -> "uncaught"

let kind_detail = function
  | Out_of_fuel fuel -> Printf.sprintf "budget %d exhausted" fuel
  | Emulator_trap msg -> msg
  | Decode_error w -> Printf.sprintf "cannot decode 0x%08lx" w
  | Asm_error msg -> msg
  | Isel_unsupported msg -> msg
  | Ill_formed msg -> msg
  | Miscompile { expected; got; oracle } ->
    Printf.sprintf "checksum %Lx, expected %Lx (%s oracle)" got expected oracle
  | Accounting_violation msg -> msg
  | Uncaught msg -> msg

let to_string { coord; kind } =
  Printf.sprintf "[%s/%s/%s] %s: %s" coord.program coord.profile coord.vm
    (kind_name kind) (kind_detail kind)
