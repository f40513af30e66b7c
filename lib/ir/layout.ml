(** Guest address-space layout, shared by the IR interpreter and the RV32
    code generator so that programs behave identically under both.

    The layout mirrors the flat 32-bit space of RISC-V zkVM guests:
    code low, globals above it, stack at the top growing down. *)

let code_base = 0x0000_1000l
let globals_base = 0x0002_0000l
let stack_top = 0x0FF0_0000l

let align_up n a = (n + a - 1) / a * a

(** Assign an address to every global, in declaration order, 16-aligned.
    Returns the address map and the end of the data segment. *)
let place_globals (m : Modul.t) =
  let table = Hashtbl.create 16 in
  let next = ref (Int32.to_int globals_base) in
  List.iter
    (fun (g : Modul.global) ->
      Hashtbl.replace table g.gname (Int32.of_int !next);
      next := align_up (!next + Modul.global_size g) 16)
    m.globals;
  (table, Int32.of_int !next)
