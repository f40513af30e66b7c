(** Natural-loop discovery and counted-loop pattern matching.

    A natural loop is identified by a back edge [latch -> header] where
    [header] dominates [latch]; its body is every block that can reach the
    latch without passing through the header. *)

open Zkopt_ir

type t = {
  header : int;
  latches : int list;
  body : Intset.t;       (* includes header and latches *)
  depth : int;           (* 1 = outermost *)
}

(* Collect the body of the loop with the given header/latch back edges. *)
let loop_body (cfg : Cfg.t) header latches =
  let body = ref (Intset.singleton header) in
  let rec add i =
    if not (Intset.mem i !body) then begin
      body := Intset.add i !body;
      List.iter add cfg.Cfg.pred.(i)
    end
  in
  List.iter add latches;
  !body

(** All natural loops of [cfg], outermost first within each header, with
    nesting depths filled in.  Back edges sharing a header are merged into
    one loop, as LLVM does. *)
let find (cfg : Cfg.t) : t list =
  let dom = Dom.compute cfg in
  let n = Cfg.size cfg in
  let latches_of = Hashtbl.create 4 in
  for u = 0 to n - 1 do
    List.iter
      (fun h ->
        if Dom.dominates dom h u then
          Hashtbl.replace latches_of h
            (u :: Option.value ~default:[] (Hashtbl.find_opt latches_of h)))
      cfg.Cfg.succ.(u)
  done;
  let loops =
    Hashtbl.fold
      (fun header latches acc ->
        { header; latches; body = loop_body cfg header latches; depth = 0 } :: acc)
      latches_of []
  in
  (* depth = number of loops containing this loop's header *)
  let with_depth =
    List.map
      (fun l ->
        let depth =
          List.length (List.filter (fun l' -> Intset.mem l.header l'.body) loops)
        in
        { l with depth })
      loops
  in
  List.sort (fun a b -> compare (a.depth, a.header) (b.depth, b.header)) with_depth

(** Blocks outside the loop reachable from inside it. *)
let exit_targets (cfg : Cfg.t) (l : t) =
  Intset.fold
    (fun i acc ->
      List.fold_left
        (fun acc s -> if Intset.mem s l.body then acc else Intset.add s acc)
        acc cfg.Cfg.succ.(i))
    l.body Intset.empty

(** A unique predecessor of the header from outside the loop, if any —
    the preheader. *)
let preheader (cfg : Cfg.t) (l : t) =
  match List.filter (fun p -> not (Intset.mem p l.body)) cfg.Cfg.pred.(l.header) with
  | [ p ] -> Some p
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Counted loops                                                       *)
(* ------------------------------------------------------------------ *)

type counted = {
  loop : t;
  iv : Value.reg;           (* induction variable (multi-def register) *)
  iv_ty : Ty.t;
  cmp_op : Instr.cmpop;
  bound : Value.t;          (* loop-invariant bound *)
  step : int64;             (* constant step added in the latch *)
  body_label : string;      (* successor taken while the loop continues *)
  exit_label : string;
  latch : int;
  incr_temp : Value.reg;    (* the register holding iv+step in the latch *)
}

(** Match the canonical shape emitted by {!Zkopt_ir.Builder.for_}:
    - single latch
    - header terminator: [cbr (icmp op iv bound), body, exit]
      (the compare is the last instruction of the header)
    - latch ends with [t := iv + step; iv := t; br header]
    - [iv] has exactly two defs (init outside, update in latch)
    - [bound] is stable (invariant by def-shape) *)
let as_counted (cfg : Cfg.t) (defs : Defs.t) (l : t) : counted option =
  match l.latches with
  | [ latch ] -> begin
    let header_block = Cfg.block cfg l.header in
    let latch_block = Cfg.block cfg latch in
    match header_block.Block.term with
    | Instr.Cbr { cond = Value.Reg cond_reg; if_true; if_false } -> begin
      (* which side stays in the loop? *)
      let body_label, exit_label, negated =
        let in_loop lbl =
          match Cfg.index_of cfg lbl with
          | Some i -> Intset.mem i l.body
          | None -> false
        in
        if in_loop if_true && not (in_loop if_false) then (if_true, if_false, false)
        else if in_loop if_false && not (in_loop if_true) then (if_false, if_true, true)
        else ("", "", false)
      in
      if String.equal body_label "" then None
      else
        (* the compare must be the last instruction of the header *)
        match List.rev header_block.Block.instrs with
        | Instr.Cmp { dst; ty; op; a = Value.Reg iv; b = bound } :: _
          when dst = cond_reg -> begin
          let op = if negated then Instr.cmpop_negate op else op in
          (* latch tail: Bin(t, Add, iv, step); Mov(iv, t) *)
          match List.rev latch_block.Block.instrs with
          | Instr.Mov { dst = iv'; src = Value.Reg t; _ }
            :: Instr.Bin { dst = t'; op = Instr.Add; a = Value.Reg iv''; b = Value.Imm step; ty = ty' }
            :: _
            when iv' = iv && t' = t && iv'' = iv && Ty.equal ty ty'
                 && Defs.count defs iv = 2
                 && Defs.is_stable defs bound ->
            Some
              { loop = l; iv; iv_ty = ty; cmp_op = op; bound; step;
                body_label; exit_label; latch; incr_temp = t }
          | _ -> None
        end
        | _ -> None
    end
    | _ -> None
  end
  | _ -> None

(** Constant trip count, when init, bound and step are all immediates and
    the comparison is a simple [<]/[<=]/[!=] counting-up loop. *)
let trip_count (c : counted) ~(init : int64 option) : int option =
  match (init, c.bound, c.cmp_op) with
  | Some init, Value.Imm bound, (Instr.Slt | Instr.Ult) when c.step > 0L ->
    let diff = Int64.sub bound init in
    if Int64.compare diff 0L <= 0 then Some 0
    else
      Some
        (Int64.to_int
           (Int64.div (Int64.add diff (Int64.sub c.step 1L)) c.step))
  | Some init, Value.Imm bound, (Instr.Sle | Instr.Ule) when c.step > 0L ->
    let diff = Int64.add (Int64.sub bound init) 1L in
    if Int64.compare diff 0L <= 0 then Some 0
    else
      Some
        (Int64.to_int
           (Int64.div (Int64.add diff (Int64.sub c.step 1L)) c.step))
  | Some init, Value.Imm bound, Instr.Ne when c.step = 1L ->
    let diff = Int64.sub bound init in
    if Int64.compare diff 0L < 0 then None else Some (Int64.to_int diff)
  | _ -> None
