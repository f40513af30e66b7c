(** The list-and-[Hashtbl] form of {!Zkopt_riscv.Regalloc.allocate},
    kept as its oracle: [Intset] liveness iterated to a fixpoint, a
    [Hashtbl] per interval bound and per rewritten item, the active list
    re-sorted on every assignment and every call position scanned for
    every interval.  It returns {!Zkopt_riscv.Regalloc.result}, so
    [test/test_riscv.ml] compares the two allocators' results with [=].

    Linear-scan register allocation over the selector's virtual registers.

    x30/x31 are reserved as spill scratch, a-registers are argument/result
    plumbing emitted directly by the selector, and everything is
    caller-saved: any interval live across a call is assigned a stack
    slot.  This discipline is what makes the paper's backend-mediated
    effects reproducible — inlining removes call-crossing spills (Fig. 3),
    and pass-created register pressure (licm, Fig. 9) turns into genuine
    lw/sw traffic against stack pages. *)

open Zkopt_riscv

type interval = {
  vreg : int;
  start_ : int;
  stop_ : int;
}

(* t0-t2, s0-s1, s2-s9: thirteen allocatable registers.  The remaining
   GPRs are the zero/ra/sp/gp/tp fixture, the a-registers (argument
   plumbing owned by the selector), x26-x29 (assembler/linker scratch in
   this toolchain) and x30/x31 (spill scratch).  The modest pool mirrors
   how much of the register file a simple RV32 codegen actually has free,
   and is what lets pass-induced live-range growth turn into the spill
   traffic the paper measures. *)
let pool = [ 5; 6; 7; 8; 9; 18; 19; 20; 21; 22; 23; 24; 25 ]
let scratch0 = 30 (* t5 *)
let scratch1 = 31 (* t6 *)

let item_defs (it : Asm.item) =
  match it with
  | Asm.Ins (Isa.Op (_, rd, _, _))
  | Ins (Isa.Opi (_, rd, _, _))
  | Ins (Isa.Lui (rd, _))
  | Ins (Isa.Auipc (rd, _))
  | Ins (Isa.Load (_, rd, _, _))
  | Li (rd, _)
  | La (rd, _) ->
    [ rd ]
  | Ins (Isa.Jal (rd, _)) | Ins (Isa.Jalr (rd, _, _)) -> [ rd ]
  | Ins (Isa.Store _) | Ins (Isa.Branch _) | Ins Isa.Ecall -> []
  | Label _ | J _ | Bc _ | CallSym _ | Ret | Loc _ -> []

let item_uses (it : Asm.item) =
  match it with
  | Asm.Ins (Isa.Op (_, _, rs1, rs2)) -> [ rs1; rs2 ]
  | Ins (Isa.Opi (_, _, rs1, _)) -> [ rs1 ]
  | Ins (Isa.Load (_, _, rs1, _)) -> [ rs1 ]
  | Ins (Isa.Store (_, rs2, rs1, _)) -> [ rs1; rs2 ]
  | Ins (Isa.Jalr (_, rs1, _)) -> [ rs1 ]
  | Ins (Isa.Branch (_, rs1, rs2, _)) -> [ rs1; rs2 ]
  | Bc (_, rs1, rs2, _) -> [ rs1; rs2 ]
  | Ins (Isa.Lui _) | Ins (Isa.Auipc _) | Ins (Isa.Jal _) | Ins Isa.Ecall
  | Li _ | La _ | Label _ | J _ | CallSym _ | Ret | Loc _ ->
    []

let map_item_regs f (it : Asm.item) : Asm.item =
  match it with
  | Asm.Ins (Isa.Op (op, rd, rs1, rs2)) -> Asm.Ins (Isa.Op (op, f rd, f rs1, f rs2))
  | Ins (Isa.Opi (op, rd, rs1, imm)) -> Ins (Isa.Opi (op, f rd, f rs1, imm))
  | Ins (Isa.Lui (rd, imm)) -> Ins (Isa.Lui (f rd, imm))
  | Ins (Isa.Auipc (rd, imm)) -> Ins (Isa.Auipc (f rd, imm))
  | Ins (Isa.Load (w, rd, rs1, imm)) -> Ins (Isa.Load (w, f rd, f rs1, imm))
  | Ins (Isa.Store (w, rs2, rs1, imm)) -> Ins (Isa.Store (w, f rs2, f rs1, imm))
  | Ins (Isa.Jal (rd, off)) -> Ins (Isa.Jal (f rd, off))
  | Ins (Isa.Jalr (rd, rs1, imm)) -> Ins (Isa.Jalr (f rd, f rs1, imm))
  | Ins (Isa.Branch (c, rs1, rs2, off)) -> Ins (Isa.Branch (c, f rs1, f rs2, off))
  | Li (rd, v) -> Li (f rd, v)
  | La (rd, s) -> La (f rd, s)
  | Bc (c, rs1, rs2, l) -> Bc (c, f rs1, f rs2, l)
  | Ins Isa.Ecall | Label _ | J _ | CallSym _ | Ret | Loc _ -> it

let is_vreg r = r >= Isel.vreg_base

(* ------------------------------------------------------------------ *)
(* Machine-level liveness                                              *)
(* ------------------------------------------------------------------ *)

module IS = Zkopt_analysis.Intset

(* Split items into leader-indexed blocks and compute successor indices. *)
let machine_blocks (items : Asm.item array) =
  let n = Array.length items in
  let leader = Array.make n false in
  if n > 0 then leader.(0) <- true;
  Array.iteri
    (fun i it ->
      match it with
      | Asm.Label _ -> leader.(i) <- true
      | J _ | Bc _ | Ret -> if i + 1 < n then leader.(i + 1) <- true
      | _ -> ())
    items;
  let starts = ref [] in
  for i = n - 1 downto 0 do
    if leader.(i) then starts := i :: !starts
  done;
  let starts = Array.of_list !starts in
  let nb = Array.length starts in
  let block_of = Array.make n 0 in
  Array.iteri
    (fun bi s ->
      let e = if bi + 1 < nb then starts.(bi + 1) else n in
      for i = s to e - 1 do
        block_of.(i) <- bi
      done)
    starts;
  let label_block = Hashtbl.create 16 in
  Array.iteri
    (fun i it ->
      match it with
      | Asm.Label l -> Hashtbl.replace label_block l block_of.(i)
      | _ -> ())
    items;
  let succ = Array.make nb [] in
  Array.iteri
    (fun bi _start ->
      let e = if bi + 1 < nb then starts.(bi + 1) else n in
      let last = items.(e - 1) in
      let fallthrough = if bi + 1 < nb then [ bi + 1 ] else [] in
      succ.(bi) <-
        (match last with
        | Asm.J l -> [ Hashtbl.find label_block l ]
        | Bc (_, _, _, l) -> Hashtbl.find label_block l :: fallthrough
        | Ret -> []
        | _ -> fallthrough))
    starts;
  (starts, block_of, succ)

let intervals_of (items : Asm.item array) : interval list * IS.t =
  let n = Array.length items in
  let starts, _block_of, succ = machine_blocks items in
  let nb = Array.length starts in
  let block_range bi =
    let s = starts.(bi) in
    let e = if bi + 1 < nb then starts.(bi + 1) else n in
    (s, e)
  in
  (* block-level liveness over vregs *)
  let use = Array.make nb IS.empty and def = Array.make nb IS.empty in
  for bi = 0 to nb - 1 do
    let s, e = block_range bi in
    for i = s to e - 1 do
      List.iter
        (fun r ->
          if is_vreg r && not (IS.mem r def.(bi)) then use.(bi) <- IS.add r use.(bi))
        (item_uses items.(i));
      List.iter (fun r -> if is_vreg r then def.(bi) <- IS.add r def.(bi)) (item_defs items.(i))
    done
  done;
  let live_in = Array.make nb IS.empty and live_out = Array.make nb IS.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for bi = nb - 1 downto 0 do
      let out =
        List.fold_left (fun acc s -> IS.union acc live_in.(s)) IS.empty succ.(bi)
      in
      let inn = IS.union use.(bi) (IS.diff out def.(bi)) in
      if not (IS.equal out live_out.(bi) && IS.equal inn live_in.(bi)) then begin
        live_out.(bi) <- out;
        live_in.(bi) <- inn;
        changed := true
      end
    done
  done;
  (* intervals: min/max positions over defs, uses and live block edges *)
  let lo = Hashtbl.create 64 and hi = Hashtbl.create 64 in
  let note r pos =
    if is_vreg r then begin
      (match Hashtbl.find_opt lo r with
      | Some p when p <= pos -> ()
      | _ -> Hashtbl.replace lo r pos);
      match Hashtbl.find_opt hi r with
      | Some p when p >= pos -> ()
      | _ -> Hashtbl.replace hi r pos
    end
  in
  Array.iteri
    (fun i it ->
      List.iter (fun r -> note r i) (item_defs it);
      List.iter (fun r -> note r i) (item_uses it))
    items;
  for bi = 0 to nb - 1 do
    let s, e = block_range bi in
    IS.iter (fun r -> note r s) live_in.(bi);
    IS.iter (fun r -> note r (e - 1)) live_out.(bi)
  done;
  let call_positions = ref IS.empty in
  Array.iteri
    (fun i it -> match it with Asm.CallSym _ -> call_positions := IS.add i !call_positions | _ -> ())
    items;
  let intervals =
    Hashtbl.fold
      (fun r s acc -> { vreg = r; start_ = s; stop_ = Hashtbl.find hi r } :: acc)
      lo []
  in
  (List.sort (fun a b -> compare (a.start_, a.vreg) (b.start_, b.vreg)) intervals,
   !call_positions)

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

type assignment =
  | Phys of int
  | Slot of int

type result = Regalloc.result = {
  items : Asm.item list;   (* physical registers only *)
  spill_slots : int;
  spill_loads : int;       (* reload instructions inserted *)
  spill_stores : int;
}

let crosses_call calls iv =
  IS.exists (fun p -> p >= iv.start_ && p < iv.stop_) calls

(** Allocate and rewrite.  [slot_base] is the sp-relative byte offset of
    spill slot 0 (just above the alloca area). *)
let allocate ~slot_base (items_list : Asm.item list) : result =
  let items = Array.of_list items_list in
  let intervals, calls = intervals_of items in
  let assignment : (int, assignment) Hashtbl.t = Hashtbl.create 64 in
  let next_slot = ref 0 in
  let new_slot () =
    let s = !next_slot in
    incr next_slot;
    s
  in
  (* call-crossing intervals go straight to slots *)
  let allocatable =
    List.filter
      (fun iv ->
        if crosses_call calls iv then begin
          Hashtbl.replace assignment iv.vreg (Slot (new_slot ()));
          false
        end
        else true)
      intervals
  in
  (* classic linear scan on the rest *)
  let active = ref [] in (* (stop, vreg, phys), sorted by stop *)
  let free = ref pool in
  let expire pos =
    let expired, still = List.partition (fun (e, _, _) -> e < pos) !active in
    List.iter (fun (_, _, p) -> free := p :: !free) expired;
    active := still
  in
  List.iter
    (fun iv ->
      expire iv.start_;
      match !free with
      | p :: rest ->
        free := rest;
        Hashtbl.replace assignment iv.vreg (Phys p);
        active := List.sort compare ((iv.stop_, iv.vreg, p) :: !active)
      | [] ->
        (* spill the interval that ends last *)
        let (e_last, v_last, p_last) = List.nth !active (List.length !active - 1) in
        if e_last > iv.stop_ then begin
          Hashtbl.replace assignment v_last (Slot (new_slot ()));
          Hashtbl.replace assignment iv.vreg (Phys p_last);
          active :=
            List.sort compare
              ((iv.stop_, iv.vreg, p_last)
              :: List.filter (fun (_, v, _) -> v <> v_last) !active)
        end
        else Hashtbl.replace assignment iv.vreg (Slot (new_slot ())))
    allocatable;
  (* rewrite *)
  let out = ref [] in
  let loads = ref 0 and stores = ref 0 in
  let emit it = out := it :: !out in
  let slot_off s =
    let off = slot_base + (4 * s) in
    if off > 2040 then
      failwith
        (Printf.sprintf "Regalloc: spill slot offset %d exceeds imm12 range" off);
    off
  in
  Array.iter
    (fun it ->
      let uses = List.filter is_vreg (item_uses it) in
      let defs = List.filter is_vreg (item_defs it) in
      (* scratch mapping for spilled regs in this item *)
      let scratch_map = Hashtbl.create 4 in
      let next_scratch = ref [ scratch0; scratch1 ] in
      let scratch_for v =
        match Hashtbl.find_opt scratch_map v with
        | Some s -> s
        | None ->
          (match !next_scratch with
          | s :: rest ->
            next_scratch := rest;
            Hashtbl.replace scratch_map v s;
            s
          | [] -> failwith "Regalloc: out of scratch registers")
      in
      (* reload spilled sources *)
      List.iter
        (fun v ->
          match Hashtbl.find_opt assignment v with
          | Some (Slot s) ->
            let sc = scratch_for v in
            incr loads;
            emit (Asm.Ins (Isa.Load (Isa.LW, sc, Isa.sp, slot_off s)))
          | _ -> ())
        (List.sort_uniq compare uses);
      (* allow the def to reuse a scratch (sources are consumed first) *)
      let def_spills =
        List.filter_map
          (fun v ->
            match Hashtbl.find_opt assignment v with
            | Some (Slot s) -> Some (v, s)
            | _ -> None)
          defs
      in
      List.iter
        (fun (v, _) ->
          (* the def may always reuse scratch0: source reads complete
             before the destination is written *)
          if not (Hashtbl.mem scratch_map v) then
            match !next_scratch with
            | s :: rest ->
              next_scratch := rest;
              Hashtbl.replace scratch_map v s
            | [] -> Hashtbl.replace scratch_map v scratch0)
        def_spills;
      let map r =
        if not (is_vreg r) then r
        else
          match Hashtbl.find_opt assignment r with
          | Some (Phys p) -> p
          | Some (Slot _) -> Hashtbl.find scratch_map r
          | None -> scratch0 (* dead def of a never-used vreg *)
      in
      emit (map_item_regs map it);
      List.iter
        (fun (v, s) ->
          incr stores;
          emit (Asm.Ins (Isa.Store (Isa.SW, Hashtbl.find scratch_map v, Isa.sp, slot_off s))))
        def_spills)
    items;
  {
    items = List.rev !out;
    spill_slots = !next_slot;
    spill_loads = !loads;
    spill_stores = !stores;
  }
