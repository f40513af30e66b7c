(** The hash-table form of {!Zkopt_riscv.Asm.assemble}, kept as its
    oracle.

    Labels are keyed by the string [unit ^ "$" ^ label], item addresses
    and relaxed branches live in [Hashtbl]s keyed by a global item index,
    and every layout pass walks a list of [(index, unit, item)] triples.
    It shares {!Zkopt_riscv.Asm}'s types and exception, so
    [test/test_riscv.ml] compares the two assemblers' programs (code,
    srcmap, symbols, [data_end]) and failures directly. *)

open Zkopt_riscv

type item = Asm.item =
  | Label of string
  | Ins of Isa.t
  | Li of Isa.reg * int32
  | La of Isa.reg * string
  | J of string
  | Bc of Isa.bcond * Isa.reg * Isa.reg * string
  | CallSym of string
  | Ret
  | Loc of string

type unit_ = Asm.unit_ = { name : string; items : item list }

type program = Asm.program = {
  code : Isa.t array;
  base : int32;
  symbols : (string, int32) Hashtbl.t;
  data_end : int32;
  srcmap : (string * string) array;
}

let fits_imm12 (v : int) = v >= -2048 && v <= 2047

let fits_imm12_32 (v : int32) =
  Int32.compare v (-2048l) >= 0 && Int32.compare v 2047l <= 0

(* Split a 32-bit constant into %hi/%lo parts such that
   (hi << 12) + sext(lo) = v, the standard lui+addi idiom. *)
let hi_lo (v : int32) =
  let lo = Int32.to_int (Int32.logand v 0xFFFl) in
  let lo = if lo >= 2048 then lo - 4096 else lo in
  let hi = Int32.sub v (Int32.of_int lo) in
  (hi, lo)

let expand_li rd (v : int32) =
  if fits_imm12_32 v then [ Isa.Opi (Isa.ADDI, rd, Isa.zero, Int32.to_int v) ]
  else
    let hi, lo = hi_lo v in
    if lo = 0 then [ Isa.Lui (rd, hi) ]
    else [ Isa.Lui (rd, hi); Isa.Opi (Isa.ADDI, rd, rd, lo) ]

(* Number of instruction words an item occupies.  [relaxed] marks Bc items
   (by identity index) that need the long form. *)
let item_size ~relaxed idx = function
  | Label _ | Loc _ -> 0
  | Ins _ | J _ | CallSym _ | Ret -> 1
  | Li (_, v) -> List.length (expand_li 0 v)
  | La _ -> 2
  | Bc _ -> if Hashtbl.mem relaxed idx then 2 else 1

let invert_bcond = function
  | Isa.BEQ -> Isa.BNE | BNE -> BEQ | BLT -> BGE | BGE -> BLT
  | BLTU -> BGEU | BGEU -> BLTU

exception Asm_error = Asm.Asm_error

let error fmt = Printf.ksprintf (fun s -> raise (Asm_error s)) fmt

(** Assemble all units into a program image.  [globals] is the placed
    global table (from {!Zkopt_ir.Layout.place_globals}). *)
let assemble ~(globals : (string, int32) Hashtbl.t) ~data_end (units : unit_ list) : program =
  let base = Zkopt_ir.Layout.code_base in
  (* Give every item a stable index for relaxation bookkeeping. *)
  let all_items =
    List.concat_map (fun u -> List.map (fun it -> (u.name, it)) u.items) units
  in
  let indexed = List.mapi (fun i (u, it) -> (i, u, it)) all_items in
  let relaxed = Hashtbl.create 16 in
  let symbols = Hashtbl.create 64 in
  Hashtbl.iter (fun k v -> Hashtbl.replace symbols k v) globals;

  (* Layout: compute the address of every item and label; then check
     branch ranges; iterate until no new relaxations appear. *)
  let labels = Hashtbl.create 64 in
  let addr_of_item = Hashtbl.create 256 in
  let layout () =
    Hashtbl.reset labels;
    Hashtbl.reset addr_of_item;
    let pc = ref (Int32.to_int base) in
    List.iter
      (fun (idx, uname, it) ->
        Hashtbl.replace addr_of_item idx !pc;
        (match it with
        | Label l -> Hashtbl.replace labels (uname ^ "$" ^ l) !pc
        | _ -> ());
        pc := !pc + (4 * item_size ~relaxed idx it))
      indexed;
    (* function entry = address of its first item *)
    let seen = Hashtbl.create 16 in
    List.iter
      (fun (idx, uname, _) ->
        if not (Hashtbl.mem seen uname) then begin
          Hashtbl.replace seen uname ();
          Hashtbl.replace symbols uname (Int32.of_int (Hashtbl.find addr_of_item idx))
        end)
      indexed;
    !pc
  in
  let label_addr uname l =
    match Hashtbl.find_opt labels (uname ^ "$" ^ l) with
    | Some a -> a
    | None -> error "undefined label %s in %s" l uname
  in
  let rec fix () =
    let _end = layout () in
    let grew = ref false in
    List.iter
      (fun (idx, uname, it) ->
        match it with
        | Bc (_, _, _, l) when not (Hashtbl.mem relaxed idx) ->
          let here = Hashtbl.find addr_of_item idx in
          let target = label_addr uname l in
          let off = target - here in
          if not (off >= -4096 && off <= 4094) then begin
            Hashtbl.replace relaxed idx ();
            grew := true
          end
        | _ -> ())
      indexed;
    if !grew then fix ()
  in
  fix ();
  let code_end = layout () in

  (* Emission.  Every emitted word records the (function, block) site the
     last provenance marker named; units without markers map to
     (unit, ""). *)
  let out = ref [] in
  let src = ref [] in
  let cur_unit = ref "" in
  let cur_block = ref "" in
  let emit_at uname i =
    if not (String.equal uname !cur_unit) then begin
      cur_unit := uname;
      cur_block := ""
    end;
    out := i :: !out;
    src := (uname, !cur_block) :: !src
  in
  List.iter
    (fun (idx, uname, it) ->
      let here = Hashtbl.find addr_of_item idx in
      let emit i = emit_at uname i in
      match it with
      | Label _ -> ()
      | Loc b ->
        if not (String.equal uname !cur_unit) then cur_unit := uname;
        cur_block := b
      | Ins i -> emit i
      | Li (rd, v) -> List.iter emit (expand_li rd v)
      | La (rd, sym) -> begin
        match Hashtbl.find_opt symbols sym with
        | None -> error "undefined symbol %s" sym
        | Some a ->
          let hi, lo = hi_lo a in
          emit (Isa.Lui (rd, hi));
          emit (Isa.Opi (Isa.ADDI, rd, rd, lo))
      end
      | J l ->
        let off = label_addr uname l - here in
        if not (off >= -1048576 && off <= 1048574) then
          error "jump out of range in %s" uname;
        emit (Isa.Jal (Isa.zero, off))
      | Bc (c, rs1, rs2, l) ->
        let target = label_addr uname l in
        if Hashtbl.mem relaxed idx then begin
          (* inverted branch over a jal *)
          emit (Isa.Branch (invert_bcond c, rs1, rs2, 8));
          let off = target - (here + 4) in
          emit (Isa.Jal (Isa.zero, off))
        end
        else emit (Isa.Branch (c, rs1, rs2, target - here))
      | CallSym sym -> begin
        match Hashtbl.find_opt symbols sym with
        | None -> error "undefined function %s" sym
        | Some a -> emit (Isa.Jal (Isa.ra, Int32.to_int a - here))
      end
      | Ret -> emit (Isa.Jalr (Isa.zero, Isa.ra, 0)))
    indexed;
  ignore code_end;
  {
    code = Array.of_list (List.rev !out);
    base;
    symbols;
    data_end;
    srcmap = Array.of_list (List.rev !src);
  }
