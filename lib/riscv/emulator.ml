(** The RV32 guest ABI: run-failure exceptions, syscall numbers and the
    precompile table (see emulator.mli). *)

open Zkopt_ir

exception Trap of string
exception Out_of_fuel of int

let default_fuel = 500_000_000

let syscall_halt = 0
let syscall_precompile_base = 1000

(* Precompile signatures as a flat array, computed once at module load:
   syscall dispatch indexes it directly instead of walking the signature
   list on every call. *)
let precompile_signatures : (string * int) array =
  Array.of_list Extern.signatures

let precompile_syscall_id name =
  let n = Array.length precompile_signatures in
  let rec find i =
    if i >= n then invalid_arg ("unknown precompile " ^ name)
    else if String.equal (fst precompile_signatures.(i)) name then i
    else find (i + 1)
  in
  syscall_precompile_base + find 0
