(** Loop restructuring: distribution (fission), fusion, extraction into
    functions, and the memset idiom.

    Fission is the paper's Fig. 2b subject: splitting a loop improves
    cache locality on the CPU model but duplicates the loop bookkeeping,
    which on zkVMs is pure extra proof work. *)

open Zkopt_ir
open Zkopt_analysis

(* An "elementwise" loop body: every load/store goes through an Addr of
   an invariant base indexed exactly by the induction variable. *)
let elementwise_accesses (cfg : Cfg.t) (defs : Defs.t) (loop : Loops.t)
    (c : Loops.counted) (body : Block.t) =
  let inv = Util.loop_invariance cfg defs loop in
  let ok = ref true in
  let bases = ref [] in
  List.iter
    (fun i ->
      let base_of addr =
        match addr with
        | Value.Reg a -> begin
          match Defs.def_of defs a with
          | Some (Instr.Addr { base; index = Value.Reg idx; _ })
            when idx = c.Loops.iv && Util.loop_invariant_value inv base ->
            Some base
          | _ -> None
        end
        | _ -> None
      in
      match i with
      | Instr.Load { addr; _ } | Store { addr; _ } -> begin
        match base_of addr with
        | Some b -> bases := b :: !bases
        | None -> ok := false
      end
      | Call _ | Precompile _ -> ok := false
      | _ -> ())
    body.Block.instrs;
  if !ok then Some !bases else None

(* dependence groups: union-find over instructions connected by register
   def/use or by sharing a memory base *)
let body_groups (defs : Defs.t) (c : Loops.counted) (body : Block.t) =
  let instrs = Array.of_list body.Block.instrs in
  let n = Array.length instrs in
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  (* reg edges: def at i, use at j (only regs defined in the body) *)
  let def_site = Hashtbl.create 16 in
  Array.iteri
    (fun i ins -> Option.iter (fun d -> Hashtbl.replace def_site d i) (Instr.def ins))
    instrs;
  Array.iteri
    (fun j ins ->
      List.iter
        (fun u ->
          match Hashtbl.find_opt def_site u with
          | Some i when u <> c.Loops.iv -> union i j
          | _ -> ())
        (Instr.uses ins))
    instrs;
  (* memory edges: same base value *)
  let base_site = Hashtbl.create 4 in
  Array.iteri
    (fun i ins ->
      match ins with
      | Instr.Load { addr = Value.Reg a; _ } | Store { addr = Value.Reg a; _ }
        -> begin
        match Defs.def_of defs a with
        | Some (Instr.Addr { base; _ }) -> begin
          match Hashtbl.find_opt base_site base with
          | Some j -> union i j
          | None -> Hashtbl.replace base_site base i
        end
        | Some _ | None -> ()
      end
      | _ -> ())
    instrs;
  (* the iv update tail stays with every group: exclude it from grouping *)
  let tail_start =
    (* last two instructions are the canonical [t := iv+step; iv := t] *)
    max 0 (n - 2)
  in
  let groups = Hashtbl.create 4 in
  Array.iteri
    (fun i _ ->
      if i < tail_start then begin
        let r = find i in
        Hashtbl.replace groups r
          (i :: Option.value ~default:[] (Hashtbl.find_opt groups r))
      end)
    instrs;
  (instrs, Hashtbl.fold (fun _ l acc -> List.rev l :: acc) groups [], tail_start)

let single_body_block (cfg : Cfg.t) (loop : Loops.t) (c : Loops.counted) =
  (* loop with exactly two blocks: header + one body/latch block *)
  if Intset.cardinal loop.Loops.body = 2 then begin
    let body_i = c.Loops.latch in
    let b = Cfg.block cfg body_i in
    if String.equal b.Block.label c.Loops.body_label then Some b else None
  end
  else None

let run_fission (_config : Pass.config) (m : Modul.t) =
  let changed = ref false in
  List.iter
    (fun (f : Func.t) ->
      let cfg = Cfg.of_func f in
      let defs = Defs.compute f in
      (try
         List.iter
           (fun loop ->
             match Loops.as_counted cfg defs loop with
             | None -> ()
             | Some c -> begin
               match single_body_block cfg loop c with
               | None -> ()
               | Some body ->
                 if
                   elementwise_accesses cfg defs loop c body <> None
                   (* no register values may escape the loop *)
                   && Hashtbl.length (Loopopts.defs_used_outside cfg loop) = 0
                 then begin
                   let _instrs, groups, _tail = body_groups defs c body in
                   if List.length groups >= 2 then begin
                     (* keep group 1 in this loop; move the rest to a clone
                        that runs afterwards *)
                     let group1 = List.hd groups in
                     let keep_set = Hashtbl.create 8 in
                     List.iter (fun i -> Hashtbl.replace keep_set i ()) group1;
                     let blocks =
                       List.map (fun i -> Cfg.block cfg i)
                         (Intset.elements loop.Loops.body)
                     in
                     let label_map, cloned, _ =
                       Util.clone_blocks ~rename_regs:false f blocks
                         ~label_suffix:".fis"
                     in
                     let header_label = Cfg.label cfg loop.Loops.header in
                     let clone_header = Hashtbl.find label_map header_label in
                     (* original loop: drop non-group1 body instructions,
                        then exit into the clone *)
                     let n = List.length body.Block.instrs in
                     body.Block.instrs <-
                       List.filteri
                         (fun i _ -> Hashtbl.mem keep_set i || i >= n - 2)
                         body.Block.instrs;
                     (* clone: drop group1 instructions *)
                     let clone_body =
                       List.find
                         (fun (b : Block.t) ->
                           String.equal b.Block.label
                             (Hashtbl.find label_map c.Loops.body_label))
                         cloned
                     in
                     clone_body.Block.instrs <-
                       List.filteri
                         (fun i _ ->
                           (not (Hashtbl.mem keep_set i)) || i >= n - 2)
                         clone_body.Block.instrs;
                     (* clone iv needs its own init: copy the original's *)
                     (match
                        List.find_opt
                          (fun (b : Block.t) ->
                            String.equal b.Block.label header_label)
                          f.Func.blocks
                      with
                     | Some header ->
                       (* original header's exit edge goes to the clone's
                          init block, which we synthesize *)
                       let init_label = Func.fresh_label f "fis.init" in
                       (* find the iv's initial value *)
                       let init_value =
                         match
                           Loopopts.iv_init cfg defs c
                         with
                         | Some v -> v
                         | None -> Value.Imm 0L
                       in
                       (* only transform when the init is known *)
                       if Loopopts.iv_init cfg defs c <> None then begin
                         (* clone uses the same iv register: re-initialize *)
                         let init_block =
                           Block.create
                             ~instrs:
                               [ Instr.Mov
                                   { dst = c.Loops.iv; ty = c.Loops.iv_ty;
                                     src = init_value } ]
                             ~term:(Instr.Br clone_header) init_label
                         in
                         Func.add_block f init_block;
                         List.iter (Func.add_block f) cloned;
                         header.Block.term <-
                           Instr.map_term_labels
                             (fun l ->
                               if String.equal l c.Loops.exit_label then init_label
                               else l)
                             header.Block.term;
                         (* the clone's exit keeps pointing at the original
                            exit label (unmapped) *)
                         changed := true;
                         raise Exit
                       end
                     | None -> ())
                   end
                 end
             end)
           (Loops.find cfg)
       with Exit -> ()))
    m.Modul.funcs;
  !changed

(* fusion: two consecutive identical-trip elementwise loops merge *)
let run_fusion (_config : Pass.config) (m : Modul.t) =
  let changed = ref false in
  List.iter
    (fun (f : Func.t) ->
      let cfg = Cfg.of_func f in
      let defs = Defs.compute f in
      let loops = Loops.find cfg in
      let counted = List.filter_map (Loops.as_counted cfg defs) loops in
      (try
         List.iter
           (fun c1 ->
             List.iter
               (fun c2 ->
                 if c1 != c2 then begin
                   match
                     ( single_body_block cfg c1.Loops.loop c1,
                       single_body_block cfg c2.Loops.loop c2 )
                   with
                   | Some b1, Some b2 -> begin
                     (* loop1's exit must be exactly loop2's init block:
                        [iv2 := init; br header2] *)
                     let exit1 = c1.Loops.exit_label in
                     match Func.find_block f exit1 with
                     | Some mid
                       when (match mid.Block.term with
                            | Instr.Br l ->
                              String.equal l
                                (Cfg.label cfg c2.Loops.loop.Loops.header)
                            | _ -> false)
                            && List.length mid.Block.instrs = 1 -> begin
                       match mid.Block.instrs with
                       | [ Instr.Mov { dst; src; _ } ]
                         when dst = c2.Loops.iv
                              && Value.equal c1.Loops.bound c2.Loops.bound
                              && c1.Loops.step = c2.Loops.step
                              && c1.Loops.cmp_op = c2.Loops.cmp_op
                              && Loopopts.iv_init cfg defs c1 = Some src
                              && c1.Loops.step = 1L ->
                         (* elementwise + disjoint or read-only-shared bases *)
                         let a1 = elementwise_accesses cfg defs c1.Loops.loop c1 b1 in
                         let a2 = elementwise_accesses cfg defs c2.Loops.loop c2 b2 in
                         (match (a1, a2) with
                         | Some _, Some _ ->
                           (* splice body2 (minus its iv tail) into body1
                              before its iv tail, substituting iv2 -> iv1 *)
                           let n1 = List.length b1.Block.instrs in
                           let head1, tail1 =
                             List.filteri (fun i _ -> i < n1 - 2) b1.Block.instrs,
                             List.filteri (fun i _ -> i >= n1 - 2) b1.Block.instrs
                           in
                           let n2 = List.length b2.Block.instrs in
                           let body2 =
                             List.filteri (fun i _ -> i < n2 - 2) b2.Block.instrs
                           in
                           let subst v =
                             match v with
                             | Value.Reg r when r = c2.Loops.iv ->
                               Value.Reg c1.Loops.iv
                             | v -> v
                           in
                           let body2 = List.map (Instr.map_values subst) body2 in
                           b1.Block.instrs <- head1 @ body2 @ tail1;
                           (* loop1 now exits straight to loop2's exit *)
                           let h1 = Cfg.block cfg c1.Loops.loop.Loops.header in
                           h1.Block.term <-
                             Instr.map_term_labels
                               (fun l ->
                                 if String.equal l exit1 then c2.Loops.exit_label
                                 else l)
                               h1.Block.term;
                           ignore (Util.remove_unreachable_blocks f);
                           changed := true;
                           raise Exit
                         | _ -> ())
                       | _ -> ()
                     end
                     | _ -> ()
                   end
                   | _ -> ()
                 end)
               counted)
           counted
       with Exit -> ()))
    m.Modul.funcs;
  !changed

(* loop-extract: outline a loop into its own function (hurts zkVMs via
   call/argument traffic; helps x86 nothing here, matching Fig. 8's
   direction for RISC Zero) *)
let run_loop_extract (_config : Pass.config) (m : Modul.t) =
  let changed = ref false in
  (* operate on a snapshot: extraction adds functions to [m] *)
  let funcs = m.Modul.funcs in
  (try
     List.iter
       (fun (f : Func.t) ->
         let cfg = Cfg.of_func f in
         let defs = Defs.compute f in
         let reg_tys = Modul.reg_types m f in
         List.iter
           (fun loop ->
             match Loops.as_counted cfg defs loop with
             | None -> ()
             | Some c ->
               (* conditions: unique exit target, one escaping def at most,
                  few live-ins, no allocas inside *)
               let exits = Intset.elements (Loops.exit_targets cfg loop) in
               let has_alloca =
                 Intset.exists
                   (fun bi ->
                     List.exists
                       (fun i -> match i with Instr.Alloca _ -> true | _ -> false)
                       (Cfg.block cfg bi).Block.instrs)
                   loop.Loops.body
               in
               let escaping =
                 Hashtbl.fold (fun r () acc -> r :: acc)
                   (Loopopts.defs_used_outside cfg loop) []
               in
               (* live-ins: regs used in the loop that have at least one
                  definition outside it (params count as outside defs) *)
               let inside_count = Hashtbl.create 16 in
               Intset.iter
                 (fun bi ->
                   List.iter
                     (fun i ->
                       Option.iter
                         (fun d ->
                           Hashtbl.replace inside_count d
                             (1
                             + Option.value ~default:0
                                 (Hashtbl.find_opt inside_count d)))
                         (Instr.def i))
                     (Cfg.block cfg bi).Block.instrs)
                 loop.Loops.body;
               let live_ins = Hashtbl.create 8 in
               let outside_defs u =
                 Defs.count defs u
                 - Option.value ~default:0 (Hashtbl.find_opt inside_count u)
               in
               Intset.iter
                 (fun bi ->
                   let b = Cfg.block cfg bi in
                   let note u =
                     if outside_defs u > 0 && not (Hashtbl.mem live_ins u) then
                       Hashtbl.replace live_ins u ()
                   in
                   List.iter (fun i -> List.iter note (Instr.uses i)) b.Block.instrs;
                   List.iter note (Instr.term_uses b.Block.term))
                 loop.Loops.body;
               let live_in_list = Hashtbl.fold (fun r () acc -> r :: acc) live_ins [] in
               let word_count =
                 List.fold_left
                   (fun acc r ->
                     acc
                     +
                     match Hashtbl.find_opt reg_tys r with
                     | Some Ty.I64 -> 2
                     | _ -> 1)
                   0 live_in_list
               in
               if
                 List.length exits = 1 && (not has_alloca)
                 && List.length escaping <= 1
                 && word_count <= 8 && loop.Loops.depth = 1
                 && Intset.cardinal loop.Loops.body >= 2
               then begin
                 let exit_label = c.Loops.exit_label in
                 let header_label = Cfg.label cfg loop.Loops.header in
                 (* build the outlined function *)
                 let fname = Func.fresh_label f (f.Func.name ^ ".outlined") in
                 let params =
                   List.map
                     (fun r ->
                       (r, Option.value ~default:Ty.I32 (Hashtbl.find_opt reg_tys r)))
                     live_in_list
                 in
                 let ret_reg =
                   match escaping with [ r ] -> Some r | _ -> None
                 in
                 let ret_ty =
                   Option.map
                     (fun r ->
                       Option.value ~default:Ty.I32 (Hashtbl.find_opt reg_tys r))
                     ret_reg
                 in
                 let blocks =
                   List.map (fun i -> Cfg.block cfg i)
                     (Intset.elements loop.Loops.body)
                 in
                 let nf = Func.create ~name:fname ~params ~ret:ret_ty in
                 nf.Func.next_reg <- f.Func.next_reg;
                 (* entry jumps to the header; exits become returns *)
                 let entry = Block.create ~term:(Instr.Br header_label) "entry" in
                 Func.add_block nf entry;
                 List.iter
                   (fun (b : Block.t) ->
                     let nb =
                       Block.create ~instrs:b.Block.instrs
                         ~term:
                           (Instr.map_term_labels
                              (fun l ->
                                if String.equal l exit_label then "__ret" else l)
                              b.Block.term)
                         b.Block.label
                     in
                     Func.add_block nf nb)
                   blocks;
                 Func.add_block nf
                   (Block.create
                      ~term:(Instr.Ret (Option.map (fun r -> Value.Reg r) ret_reg))
                      "__ret");
                 Modul.add_func m nf;
                 (* replace the loop in the caller with a call *)
                 let args = List.map (fun r -> Value.Reg r) live_in_list in
                 let call =
                   Instr.Call { dst = ret_reg; callee = fname; args }
                 in
                 let stub_label = Func.fresh_label f "extracted" in
                 let stub =
                   Block.create ~instrs:[ call ] ~term:(Instr.Br exit_label)
                     stub_label
                 in
                 Func.add_block f stub;
                 Util.redirect_edges f ~from:header_label ~to_:stub_label;
                 Intset.iter
                   (fun bi -> Func.remove_block f (Cfg.label cfg bi))
                   loop.Loops.body;
                 ignore (Util.remove_unreachable_blocks f);
                 changed := true;
                 raise Exit
               end)
           (Loops.find cfg))
       funcs
   with Exit -> ());
  !changed

(* loop-idiom: a loop storing an invariant value elementwise becomes a
   memset_w call.  Both the bound and the iv's initial value must be
   immediates so the element count is a compile-time constant. *)
let run_loop_idiom (_config : Pass.config) (m : Modul.t) =
  let changed = ref false in
  let memset_ok =
    match Modul.find_func m "memset_w" with
    | Some f -> List.length f.Func.params = 3
    | None -> false
  in
  if memset_ok then
    List.iter
      (fun (f : Func.t) ->
        let cfg = Cfg.of_func f in
        let defs = Defs.compute f in
        (try
           List.iter
             (fun loop ->
               match Loops.as_counted cfg defs loop with
               | Some c
                 when c.Loops.step = 1L
                      && (c.Loops.cmp_op = Instr.Slt || c.Loops.cmp_op = Instr.Ult)
                      && Hashtbl.length (Loopopts.defs_used_outside cfg loop) = 0
                 -> begin
                 match single_body_block cfg loop c with
                 | None -> ()
                 | Some body -> begin
                   match (body.Block.instrs, Loopopts.iv_init cfg defs c, c.Loops.bound) with
                   | ( [ Instr.Addr
                           { dst = ad; base; index = Value.Reg idx; scale = 4;
                             offset };
                         Store { ty = Ty.I32; addr = Value.Reg ad2; src };
                         Bin _; Mov _ ],
                       Some (Value.Imm init),
                       Value.Imm bound )
                     when ad2 = ad && idx = c.Loops.iv
                          && List.for_all
                               (Util.loop_invariant_value
                                  (Util.loop_invariance cfg defs loop))
                               [ base; src ] ->
                     let count = Loops.trip_count c ~init:(Some init) in
                     (match count with
                     | Some n when n >= 0 ->
                       ignore bound;
                       let preheader_label, _ = Util.ensure_preheader f cfg loop in
                       let pre = Func.find_block_exn f preheader_label in
                       let start = Func.fresh_reg f in
                       pre.Block.instrs <-
                         pre.Block.instrs
                         @ [ Instr.Addr
                               { dst = start; base; index = Value.Imm init;
                                 scale = 4; offset };
                             Instr.Call
                               { dst = None; callee = "memset_w";
                                 args =
                                   [ Value.Reg start; src;
                                     Value.Imm (Int64.of_int n) ] };
                             (* iv's observable exit value *)
                             Instr.Mov
                               { dst = c.Loops.iv; ty = c.Loops.iv_ty;
                                 src =
                                   Value.Imm
                                     (Eval.norm c.Loops.iv_ty
                                        (Int64.add init (Int64.of_int n))) } ];
                       pre.Block.term <- Instr.Br c.Loops.exit_label;
                       ignore (Util.remove_unreachable_blocks f);
                       changed := true;
                       raise Exit
                     | _ -> ())
                   | _ -> ()
                 end
               end
               | _ -> ())
             (Loops.find cfg)
         with Exit -> ()))
      m.Modul.funcs;
  !changed

let () =
  Pass.register "loop-fission" "split independent loop bodies (loop-distribute)"
    run_fission;
  Pass.register "loop-fusion" "merge adjacent identical-trip elementwise loops"
    run_fusion;
  Pass.register "loop-extract" "outline loops into functions" run_loop_extract;
  Pass.register "loop-idiom" "recognize memset-style loops" run_loop_idiom
