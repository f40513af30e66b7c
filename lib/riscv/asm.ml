(** Symbolic RV32 assembly and the assembler.

    The code generator emits [item] lists with labels and pseudo
    instructions; the assembler lays out all functions, resolves symbols,
    relaxes out-of-range conditional branches (inverted branch over a
    [jal]) and produces a flat instruction image at {!Zkopt_ir.Layout.code_base}. *)

type item =
  | Label of string
  | Ins of Isa.t                      (* no unresolved references *)
  | Li of Isa.reg * int32             (* load 32-bit immediate *)
  | La of Isa.reg * string            (* load address of global/function *)
  | J of string                       (* jal x0, label *)
  | Bc of Isa.bcond * Isa.reg * Isa.reg * string
  | CallSym of string                 (* jal ra, symbol *)
  | Ret                               (* jalr x0, 0(ra) *)
  | Loc of string
      (* provenance marker: instructions that follow originate from this
         IR block (the enclosing function is the unit name).  Occupies no
         code space; the assembler folds the markers into the program's
         [srcmap] so cycle attribution can symbolize any pc. *)

type unit_ = {
  name : string;          (* function symbol *)
  items : item list;
}

type program = {
  code : Isa.t array;                   (* the final image, word-indexed *)
  base : int32;                         (* address of code.(0) *)
  symbols : (string, int32) Hashtbl.t;  (* function + global addresses *)
  data_end : int32;
  srcmap : (string * string) array;
      (* (function, IR block) provenance of code.(i); "" block means the
         unit carried no markers (hand-written assembly) *)
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

(* Words of [expand_li v]: one unless both halves are needed. *)
let li_size (v : int32) =
  if fits_imm12_32 v || Int32.to_int v land 0xFFF = 0 then 1 else 2

let invert_bcond = function
  | Isa.BEQ -> Isa.BNE | BNE -> BEQ | BLT -> BGE | BGE -> BLT
  | BLTU -> BGEU | BGEU -> BLTU

exception Asm_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Asm_error s)) fmt

(** Assemble all units into a program image.  [globals] is the placed
    global table (from {!Zkopt_ir.Layout.place_globals}).

    Labels, conditional branches and units are numbered in item order.
    Each unit's labels map to label numbers once (a label defined twice
    takes its last definition, and units sharing a name share labels);
    label and branch addresses and the relaxed (long-form) branches are
    arrays over those numbers, and every pass walks the item lists in
    order.  Layout repeats until no further branch needs relaxing.
    [test/test_riscv.ml] pins this, failures included, to the hash-table
    form kept as [Zkopt_oracle.Ref_asm]. *)
let assemble ~(globals : (string, int32) Hashtbl.t) ~data_end (units : unit_ list) : program =
  let base = Int32.to_int Zkopt_ir.Layout.code_base in
  let tables = Hashtbl.create 16 in
  let table_of u =
    match Hashtbl.find_opt tables u.name with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 16 in
      Hashtbl.replace tables u.name t;
      t
  in
  let nlabels = ref 0 and nbranches = ref 0 in
  List.iter
    (fun u ->
      let tbl = table_of u in
      List.iter
        (function
          | Label l ->
            Hashtbl.replace tbl l !nlabels;
            incr nlabels
          | Bc _ -> incr nbranches
          | _ -> ())
        u.items)
    units;
  let resolve u l =
    match Hashtbl.find_opt (table_of u) l with
    | Some j -> j
    | None -> error "undefined label %s in %s" l u.name
  in
  (* each branch's target label, resolved in item order *)
  let target = Array.make !nbranches 0 in
  let k = ref 0 in
  List.iter
    (fun u ->
      List.iter
        (function
          | Bc (_, _, _, l) ->
            target.(!k) <- resolve u l;
            incr k
          | _ -> ())
        u.items)
    units;
  let relaxed = Bytes.make !nbranches '\000' in
  let is_relaxed b = Bytes.get relaxed b <> '\000' in
  let label_at = Array.make !nlabels base and branch_at = Array.make !nbranches base in
  let unit_at = Array.make (List.length units) base in
  (* addresses of every label, branch and unit; returns the end of code *)
  let layout () =
    let pc = ref base and l = ref 0 and b = ref 0 in
    List.iteri
      (fun ui u ->
        unit_at.(ui) <- !pc;
        List.iter
          (fun it ->
            let words =
              match it with
              | Label _ ->
                label_at.(!l) <- !pc;
                incr l;
                0
              | Loc _ -> 0
              | Ins _ | J _ | CallSym _ | Ret -> 1
              | Li (_, v) -> li_size v
              | La _ -> 2
              | Bc _ ->
                branch_at.(!b) <- !pc;
                incr b;
                if is_relaxed (!b - 1) then 2 else 1
            in
            pc := !pc + (4 * words))
          u.items)
      units;
    !pc
  in
  let rec fix () =
    let code_end = layout () in
    let grew = ref false in
    for b = 0 to !nbranches - 1 do
      if not (is_relaxed b) then begin
        let off = label_at.(target.(b)) - branch_at.(b) in
        if not (off >= -4096 && off <= 4094) then begin
          Bytes.set relaxed b '\001';
          grew := true
        end
      end
    done;
    if !grew then fix () else code_end
  in
  let code_end = fix () in
  let symbols = Hashtbl.create 64 in
  Hashtbl.iter (fun k v -> Hashtbl.replace symbols k v) globals;
  (* function entry = address of its first item; the first unit of a
     name wins, and a unit with no items names nothing *)
  let entries = Hashtbl.create 16 in
  List.iteri
    (fun ui u ->
      if u.items <> [] && not (Hashtbl.mem entries u.name) then begin
        Hashtbl.replace entries u.name ();
        Hashtbl.replace symbols u.name (Int32.of_int unit_at.(ui))
      end)
    units;

  (* Emission.  Every emitted word records the (function, block) site the
     last provenance marker named; units without markers map to
     (unit, "").  Consecutive words of one site share one pair. *)
  let code = Array.make ((code_end - base) / 4) (Isa.Jalr (Isa.zero, Isa.ra, 0)) in
  let srcmap = Array.make (Array.length code) ("", "") in
  let pos = ref 0 and b = ref 0 in
  let cur_unit = ref "" and site = ref ("", "") in
  List.iter
    (fun u ->
      let uname = u.name in
      (* the block resets on the unit's first word or marker, and only
         when the name differs from the last one seen *)
      let entered = ref false in
      let enter () =
        if not !entered then begin
          entered := true;
          if not (String.equal uname !cur_unit) then begin
            cur_unit := uname;
            site := (uname, "")
          end
        end
      in
      let emit i =
        enter ();
        code.(!pos) <- i;
        srcmap.(!pos) <- !site;
        incr pos
      in
      let here () = base + (4 * !pos) in
      List.iter
        (fun it ->
          match it with
          | Label _ -> ()
          | Loc blk ->
            enter ();
            site := (uname, blk)
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
            let off = label_at.(resolve u l) - here () in
            if not (off >= -1048576 && off <= 1048574) then
              error "jump out of range in %s" uname;
            emit (Isa.Jal (Isa.zero, off))
          | Bc (c, rs1, rs2, _) ->
            let here = here () and tgt = label_at.(target.(!b)) in
            if is_relaxed !b then begin
              (* inverted branch over a jal *)
              emit (Isa.Branch (invert_bcond c, rs1, rs2, 8));
              emit (Isa.Jal (Isa.zero, tgt - (here + 4)))
            end
            else emit (Isa.Branch (c, rs1, rs2, tgt - here));
            incr b
          | CallSym sym -> begin
            match Hashtbl.find_opt symbols sym with
            | None -> error "undefined function %s" sym
            | Some a -> emit (Isa.Jal (Isa.ra, Int32.to_int a - here ()))
          end
          | Ret -> emit (Isa.Jalr (Isa.zero, Isa.ra, 0)))
        u.items)
    units;
  { code; base = Zkopt_ir.Layout.code_base; symbols; data_end; srcmap }

(** Provenance of an instruction address: [(function, block)], or [None]
    outside the code image. *)
let site_of_pc (p : program) (pc : int32) : (string * string) option =
  let idx = Int32.to_int (Int32.sub pc p.base) / 4 in
  if idx >= 0 && idx < Array.length p.srcmap then Some p.srcmap.(idx) else None

(** Assembly listing, for debugging and the manual-unroll experiments. *)
let to_string (u : unit_) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (u.name ^ ":\n");
  List.iter
    (fun it ->
      let line =
        match it with
        | Label l -> l ^ ":"
        | Ins i -> "  " ^ Isa.to_string i
        | Li (rd, v) -> Printf.sprintf "  li %s, %ld" (Isa.reg_name rd) v
        | La (rd, s) -> Printf.sprintf "  la %s, %s" (Isa.reg_name rd) s
        | J l -> "  j " ^ l
        | Bc (c, rs1, rs2, l) ->
          let n = match c with Isa.BEQ -> "beq" | BNE -> "bne" | BLT -> "blt"
                             | BGE -> "bge" | BLTU -> "bltu" | BGEU -> "bgeu" in
          Printf.sprintf "  %s %s, %s, %s" n (Isa.reg_name rs1) (Isa.reg_name rs2) l
        | CallSym s -> "  call " ^ s
        | Ret -> "  ret"
        | Loc b -> Printf.sprintf "  # loc %s" b
      in
      Buffer.add_string buf (line ^ "\n"))
    u.items;
  Buffer.contents buf
