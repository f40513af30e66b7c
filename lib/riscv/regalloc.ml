(** Linear-scan register allocation over the selector's virtual registers.

    x30/x31 are reserved as spill scratch, a-registers are argument/result
    plumbing emitted directly by the selector, and everything is
    caller-saved: any interval live across a call is assigned a stack
    slot.  This discipline is what makes the paper's backend-mediated
    effects reproducible — inlining removes call-crossing spills (Fig. 3),
    and pass-created register pressure (licm, Fig. 9) turns into genuine
    lw/sw traffic against stack pages. *)

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

(* An item writes at most one register and reads at most two: [def_reg],
   [use_a] and [use_b] name them, or -1, without allocating. *)
let def_reg (it : Asm.item) =
  match it with
  | Asm.Ins (Isa.Op (_, rd, _, _))
  | Ins (Isa.Opi (_, rd, _, _))
  | Ins (Isa.Lui (rd, _))
  | Ins (Isa.Auipc (rd, _))
  | Ins (Isa.Load (_, rd, _, _))
  | Li (rd, _)
  | La (rd, _)
  | Ins (Isa.Jal (rd, _))
  | Ins (Isa.Jalr (rd, _, _)) ->
    rd
  | Ins (Isa.Store _) | Ins (Isa.Branch _) | Ins Isa.Ecall
  | Label _ | J _ | Bc _ | CallSym _ | Ret | Loc _ ->
    -1

let use_a (it : Asm.item) =
  match it with
  | Asm.Ins (Isa.Op (_, _, rs1, _))
  | Ins (Isa.Opi (_, _, rs1, _))
  | Ins (Isa.Load (_, _, rs1, _))
  | Ins (Isa.Store (_, _, rs1, _))
  | Ins (Isa.Jalr (_, rs1, _))
  | Ins (Isa.Branch (_, rs1, _, _))
  | Bc (_, rs1, _, _) ->
    rs1
  | Ins (Isa.Lui _) | Ins (Isa.Auipc _) | Ins (Isa.Jal _) | Ins Isa.Ecall
  | Li _ | La _ | Label _ | J _ | CallSym _ | Ret | Loc _ ->
    -1

let use_b (it : Asm.item) =
  match it with
  | Asm.Ins (Isa.Op (_, _, _, rs2))
  | Ins (Isa.Store (_, rs2, _, _))
  | Ins (Isa.Branch (_, _, rs2, _))
  | Bc (_, _, rs2, _) ->
    rs2
  | Ins (Isa.Opi _) | Ins (Isa.Load _) | Ins (Isa.Jalr _) | Ins (Isa.Lui _)
  | Ins (Isa.Auipc _) | Ins (Isa.Jal _) | Ins Isa.Ecall
  | Li _ | La _ | Label _ | J _ | CallSym _ | Ret | Loc _ ->
    -1

let item_defs it = match def_reg it with -1 -> [] | rd -> [ rd ]

let item_uses it =
  match (use_a it, use_b it) with
  | -1, _ -> []
  | rs1, -1 -> [ rs1 ]
  | rs1, rs2 -> [ rs1; rs2 ]

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

(* A register's vreg index (vreg - [Isel.vreg_base]), or -1. *)
let vidx r = if is_vreg r then r - Isel.vreg_base else -1

(* ------------------------------------------------------------------ *)
(* Machine-level liveness and live intervals                           *)
(* ------------------------------------------------------------------ *)

(* Live intervals over item positions, as [lo]/[hi] per vreg index
   ([lo] = max_int: the vreg never occurs).  An interval spans every
   def and use of its vreg and every block edge it is live across.
   Liveness is solved per vreg by walking predecessors back from the
   blocks that read it before writing it: the same least fixpoint as
   iterating block sets, with no set per block. *)
let intervals (items : Asm.item array) ~dv ~ua ~ub ~nv =
  let n = Array.length items in
  (* blocks: a label starts one, a jump, branch or return ends one;
     block b covers items first.(b) .. first.(b + 1) - 1 *)
  let block_of = Array.make n 0 and starts = ref [] and nb = ref 0 in
  Array.iteri
    (fun i it ->
      let leader =
        i = 0
        || (match it with Asm.Label _ -> true | _ -> false)
        || match items.(i - 1) with Asm.J _ | Bc _ | Ret -> true | _ -> false
      in
      if leader then begin
        starts := i :: !starts;
        incr nb
      end;
      block_of.(i) <- !nb - 1)
    items;
  let nb = !nb and first = Array.of_list (List.rev (n :: !starts)) in
  let label_block = Hashtbl.create 16 in
  Array.iteri
    (fun i it ->
      match it with
      | Asm.Label l -> Hashtbl.replace label_block l block_of.(i)
      | _ -> ())
    items;
  let preds = Array.make nb [] in
  let edge b s = preds.(s) <- b :: preds.(s) in
  for b = 0 to nb - 1 do
    let fall () = if b + 1 < nb then edge b (b + 1) in
    match items.(first.(b + 1) - 1) with
    | Asm.J l -> edge b (Hashtbl.find label_block l)
    | Bc (_, _, _, l) ->
      edge b (Hashtbl.find label_block l);
      fall ()
    | Ret -> ()
    | _ -> fall ()
  done;
  (* per vreg: blocks reading it before any write in the block, and
     blocks writing it *)
  let exposed = Array.make nv [] and defined = Array.make nv [] in
  let seen_use = Array.make nv (-1) and seen_def = Array.make nv (-1) in
  let lo = Array.make nv max_int and hi = Array.make nv (-1) in
  let note v pos =
    if pos < lo.(v) then lo.(v) <- pos;
    if pos > hi.(v) then hi.(v) <- pos
  in
  let use v b i =
    if v >= 0 then begin
      note v i;
      if seen_def.(v) <> b && seen_use.(v) <> b then begin
        seen_use.(v) <- b;
        exposed.(v) <- b :: exposed.(v)
      end
    end
  in
  for i = 0 to n - 1 do
    let b = block_of.(i) in
    use ua.(i) b i;
    use ub.(i) b i;
    let d = dv.(i) in
    if d >= 0 then begin
      note d i;
      if seen_def.(d) <> b then begin
        seen_def.(d) <- b;
        defined.(d) <- b :: defined.(d)
      end
    end
  done;
  let live_in = Array.make nb (-1) and live_out = Array.make nb (-1) in
  let defs_v = Array.make nb (-1) and stack = Array.make nb 0 in
  for v = 0 to nv - 1 do
    if exposed.(v) <> [] then begin
      List.iter (fun b -> defs_v.(b) <- v) defined.(v);
      let sp = ref 0 in
      let enter b =
        live_in.(b) <- v;
        note v first.(b);
        stack.(!sp) <- b;
        incr sp
      in
      List.iter (fun b -> if live_in.(b) <> v then enter b) exposed.(v);
      let rec back = function
        | [] -> ()
        | p :: rest ->
          if live_out.(p) <> v then begin
            live_out.(p) <- v;
            note v (first.(p + 1) - 1)
          end;
          if live_in.(p) <> v && defs_v.(p) <> v then enter p;
          back rest
      in
      while !sp > 0 do
        decr sp;
        back preds.(stack.(!sp))
      done
    end
  done;
  (lo, hi)

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

type result = {
  items : Asm.item list;   (* physical registers only *)
  spill_slots : int;
  spill_loads : int;       (* reload instructions inserted *)
  spill_stores : int;
}

let pool_size = List.length pool

(** Allocate and rewrite.  [slot_base] is the sp-relative byte offset of
    spill slot 0 (just above the alloca area).

    Intervals are taken in (start, vreg) order.  Those live across a
    call go to stack slots first, in that order; the rest go through
    linear scan, whose active list is kept sorted by (stop, vreg): at
    each start the expired prefix frees its registers in list order onto
    a free stack, and when none is free the last active interval is
    spilled if it ends later than the new one.  Interval bounds and
    assignments are arrays over vreg indices.  [test/test_riscv.ml] pins
    this to the list-and-[Hashtbl] form kept as
    [Zkopt_oracle.Ref_regalloc]. *)
let allocate ~slot_base (items_list : Asm.item list) : result =
  let items = Array.of_list items_list in
  let n = Array.length items in
  let dv = Array.map (fun it -> vidx (def_reg it)) items
  and ua = Array.map (fun it -> vidx (use_a it)) items
  and ub = Array.map (fun it -> vidx (use_b it)) items in
  let nv = ref 0 in
  for i = 0 to n - 1 do
    nv := max !nv (1 + max dv.(i) (max ua.(i) ub.(i)))
  done;
  let nv = !nv in
  let lo, hi = intervals items ~dv ~ua ~ub ~nv in
  (* intervals in (start, vreg) order: a counting sort on start *)
  let at = Array.make (n + 1) 0 in
  for v = 0 to nv - 1 do
    if lo.(v) < max_int then at.(lo.(v) + 1) <- at.(lo.(v) + 1) + 1
  done;
  for i = 1 to n do
    at.(i) <- at.(i) + at.(i - 1)
  done;
  let order = Array.make at.(n) 0 in
  for v = 0 to nv - 1 do
    if lo.(v) < max_int then begin
      order.(at.(lo.(v))) <- v;
      at.(lo.(v)) <- at.(lo.(v)) + 1
    end
  done;
  (* call positions, ascending *)
  let calls = ref [] in
  Array.iteri (fun i it -> match it with Asm.CallSym _ -> calls := i :: !calls | _ -> ()) items;
  let calls = Array.of_list (List.rev !calls) in
  let crosses_call v =
    (* first call at or after the start, by bisection *)
    let l = ref 0 and r = ref (Array.length calls) in
    while !l < !r do
      let m = (!l + !r) / 2 in
      if calls.(m) < lo.(v) then l := m + 1 else r := m
    done;
    !l < Array.length calls && calls.(!l) < hi.(v)
  in
  (* assignment per vreg index: 0 none, p > 0 physical, -(s + 1) slot s *)
  let asg = Array.make nv 0 in
  let next_slot = ref 0 in
  let to_slot v =
    asg.(v) <- -(!next_slot + 1);
    incr next_slot
  in
  (* call-crossing intervals go straight to slots *)
  Array.iter (fun v -> if crosses_call v then to_slot v) order;
  (* classic linear scan on the rest *)
  let free = Array.of_list (List.rev pool) and nfree = ref pool_size in
  let act_stop = Array.make pool_size 0
  and act_v = Array.make pool_size 0
  and act_p = Array.make pool_size 0
  and nact = ref 0 in
  let insert stop v p =
    let j = ref !nact in
    while
      !j > 0
      && (act_stop.(!j - 1) > stop || (act_stop.(!j - 1) = stop && act_v.(!j - 1) > v))
    do
      act_stop.(!j) <- act_stop.(!j - 1);
      act_v.(!j) <- act_v.(!j - 1);
      act_p.(!j) <- act_p.(!j - 1);
      decr j
    done;
    act_stop.(!j) <- stop;
    act_v.(!j) <- v;
    act_p.(!j) <- p;
    incr nact
  in
  let expire pos =
    let e = ref 0 in
    while !e < !nact && act_stop.(!e) < pos do
      free.(!nfree) <- act_p.(!e);
      incr nfree;
      incr e
    done;
    let e = !e in
    if e > 0 then begin
      Array.blit act_stop e act_stop 0 (!nact - e);
      Array.blit act_v e act_v 0 (!nact - e);
      Array.blit act_p e act_p 0 (!nact - e);
      nact := !nact - e
    end
  in
  Array.iter
    (fun v ->
      if asg.(v) = 0 then begin
        expire lo.(v);
        if !nfree > 0 then begin
          decr nfree;
          let p = free.(!nfree) in
          asg.(v) <- p;
          insert hi.(v) v p
        end
        else begin
          (* spill the interval that ends last *)
          let last = !nact - 1 in
          if act_stop.(last) > hi.(v) then begin
            let p = act_p.(last) in
            to_slot act_v.(last);
            asg.(v) <- p;
            nact := last;
            insert hi.(v) v p
          end
          else to_slot v
        end
      end)
    order;
  (* rewrite *)
  let slot_off s = slot_base + (4 * s) in
  let slot_of v = if v >= 0 && asg.(v) < 0 then -asg.(v) - 1 else -1 in
  let check_slot s =
    if s >= 0 && slot_off s > 2040 then
      failwith
        (Printf.sprintf "Regalloc: spill slot offset %d exceeds imm12 range"
           (slot_off s))
  in
  if !next_slot > 0 && slot_off (!next_slot - 1) > 2040 then
    (* name the first out-of-range slot in emission order *)
    for i = 0 to n - 1 do
      let a = ua.(i) and b = ub.(i) in
      let a, b = if a >= 0 && b >= 0 && b < a then (b, a) else (a, b) in
      check_slot (slot_of a);
      if b <> a then check_slot (slot_of b);
      check_slot (slot_of dv.(i))
    done;
  let out = ref [] in
  let loads = ref 0 and stores = ref 0 in
  let emit it = out := it :: !out in
  let load sc s =
    incr loads;
    Asm.Ins (Isa.Load (Isa.LW, sc, Isa.sp, slot_off s))
  in
  (* Items are rewritten last to first, so each is emitted after what
     follows it: store, item, then reloads in reverse. *)
  for i = n - 1 downto 0 do
    let it = items.(i) in
    let d = dv.(i) and a = ua.(i) and b = ub.(i) in
    if d < 0 && a < 0 && b < 0 then emit it
    else begin
      (* reloads in ascending vreg order take scratch0, then scratch1 *)
      let first_use, second_use =
        if a >= 0 && b >= 0 then
          if a = b then (a, -1) else (min a b, max a b)
        else ((if a >= 0 then a else b), -1)
      in
      let s1 = slot_of first_use and s2 = slot_of second_use and sd = slot_of d in
      let sc1 = scratch0 and sc2 = if s1 >= 0 then scratch1 else scratch0 in
      (* a spilled def reuses its source's scratch, else takes the next
         free one, else scratch0: sources are read before it is written *)
      let scd =
        if d = first_use then sc1
        else if d = second_use then sc2
        else if (s1 >= 0) <> (s2 >= 0) then scratch1
        else scratch0
      in
      let map r =
        let v = vidx r in
        if v < 0 then r
        else
          let x = asg.(v) in
          if x > 0 then x
          else if x < 0 then
            if v = first_use then sc1 else if v = second_use then sc2 else scd
          else scratch0 (* dead def of a never-used vreg *)
      in
      if sd >= 0 then begin
        incr stores;
        emit (Asm.Ins (Isa.Store (Isa.SW, scd, Isa.sp, slot_off sd)))
      end;
      emit (map_item_regs map it);
      if s2 >= 0 then emit (load sc2 s2);
      if s1 >= 0 then emit (load sc1 s1)
    end
  done;
  {
    items = !out;
    spill_slots = !next_slot;
    spill_loads = !loads;
    spill_stores = !stores;
  }
