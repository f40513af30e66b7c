(** Loop transformations: licm, unrolling, deletion, rotation,
    normalization, induction-variable strength reduction, distribution
    (fission) and fusion, extraction, the memset idiom, prefetch
    insertion, and LCSSA-style exit copies.

    These are the passes at the heart of the paper's negative findings:
    licm and loop-extract trade loop work for live-range/paging pressure
    (Fig. 9), and unrolling only pays on zkVMs when it reduces dynamic
    instruction count (Insight 3, gated by [unroll_only_if_smaller]). *)

open Zkopt_ir
open Zkopt_analysis

let hoistable = function
  | Instr.Bin _ | Cmp _ | Select _ | Mov _ | Cast _ | Addr _ -> true
  | Load _ | Store _ | Alloca _ | Call _ | Precompile _ -> false

(* The stable initial value of a counted loop's induction variable: its
   unique def outside the loop must be [Mov iv src] with stable [src]. *)
let iv_init (cfg : Cfg.t) (defs : Defs.t) (c : Loops.counted) : Value.t option =
  let init = ref None in
  Array.iteri
    (fun bi (b : Block.t) ->
      if not (Intset.mem bi c.Loops.loop.Loops.body) then
        List.iter
          (fun i ->
            match i with
            | Instr.Mov { dst; src; _ } when dst = c.Loops.iv ->
              init := if !init = None then Some src else Some (Value.Reg (-1))
            | i when Instr.def i = Some c.Loops.iv -> init := Some (Value.Reg (-1))
            | _ -> ())
          b.Block.instrs)
    cfg.Cfg.blocks;
  match !init with
  | Some (Value.Reg r) when r < 0 -> None
  | Some src when Defs.is_stable defs src -> Some src
  | _ -> None

(* registers defined inside the loop and used outside it *)
let defs_used_outside (cfg : Cfg.t) (loop : Loops.t) =
  let inside = Hashtbl.create 16 in
  Intset.iter
    (fun bi ->
      List.iter
        (fun i -> Option.iter (fun d -> Hashtbl.replace inside d ()) (Instr.def i))
        (Cfg.block cfg bi).Block.instrs)
    loop.Loops.body;
  let escaping = Hashtbl.create 8 in
  Array.iteri
    (fun bi (b : Block.t) ->
      if not (Intset.mem bi loop.Loops.body) then begin
        List.iter
          (fun i ->
            List.iter
              (fun u -> if Hashtbl.mem inside u then Hashtbl.replace escaping u ())
              (Instr.uses i))
          b.Block.instrs;
        List.iter
          (fun u -> if Hashtbl.mem inside u then Hashtbl.replace escaping u ())
          (Instr.term_uses b.Block.term)
      end)
    cfg.Cfg.blocks;
  escaping

(* ------------------------------------------------------------------ *)
(* licm                                                                *)
(* ------------------------------------------------------------------ *)

(* Hoist invariant instructions from [loop] to the end of [preheader], at
   most [licm_max_hoist] of them.  The cap makes the hoisted set depend on
   the order: each hoist takes the first candidate in (body block index,
   instruction) order, rescanning from the start.  Returns whether
   anything moved. *)
let hoist_invariants (config : Pass.config) (defs : Defs.t) (cfg : Cfg.t)
    (loop : Loops.t) (preheader : Block.t) =
  let has_mem = Util.loop_has_memory_effects cfg loop in
  let inv = Util.loop_invariance cfg defs loop in
  let invariant = Util.loop_invariant_value inv in
  let can_hoist i =
    match Instr.def i with
    | Some d when Defs.is_single_def defs d ->
      (hoistable i
      || (match i with
         | Instr.Load { addr; _ } -> (not has_mem) && invariant addr
         | _ -> false))
      && List.for_all (fun v -> invariant (Value.Reg v)) (Instr.uses i)
    | _ -> false
  in
  let next_candidate () =
    Seq.find_map
      (fun bi ->
        let b = Cfg.block cfg bi in
        Option.map (fun i -> (b, i)) (List.find_opt can_hoist b.Block.instrs))
      (Intset.to_seq loop.Loops.body)
  in
  let rec hoist n =
    if n >= config.Pass.licm_max_hoist then n
    else
      match next_candidate () with
      | None -> n
      | Some (b, i) ->
        b.Block.instrs <- List.filter (fun j -> j != i) b.Block.instrs;
        preheader.Block.instrs <- preheader.Block.instrs @ [ i ];
        Option.iter (Util.hoisted_out inv) (Instr.def i);
        hoist (n + 1)
  in
  hoist 0 > 0

let run_licm (config : Pass.config) (m : Modul.t) =
  let changed = ref false in
  List.iter
    (fun (f : Func.t) ->
      (* a hoist moves an instruction between blocks: it changes no def
         count, def instruction or edge, so [defs] holds for the whole
         function, and the CFG and its loops go stale only when a
         preheader is inserted *)
      let defs = Defs.compute f in
      let cfg = ref (Cfg.of_func f) in
      let loops = ref (Loops.find !cfg) in
      let find header_label =
        List.find_opt
          (fun l -> String.equal (Cfg.label !cfg l.Loops.header) header_label)
          !loops
      in
      (* process loops by header label, innermost first *)
      let order =
        List.map (fun l -> (Cfg.label !cfg l.Loops.header, l.Loops.depth)) !loops
        |> List.sort (fun (_, d1) (_, d2) -> compare d2 d1)
      in
      List.iter
        (fun (header_label, _) ->
          match find header_label with
          | None -> ()
          | Some loop ->
            let preheader_label, inserted = Util.ensure_preheader f !cfg loop in
            if inserted then begin
              cfg := Cfg.of_func f;
              loops := Loops.find !cfg
            end;
            let loop = if inserted then Option.get (find header_label) else loop in
            let preheader = Func.find_block_exn f preheader_label in
            if hoist_invariants config defs !cfg loop preheader then changed := true)
        order)
    m.Modul.funcs;
  !changed

(* ------------------------------------------------------------------ *)
(* unrolling                                                           *)
(* ------------------------------------------------------------------ *)

(* Clone the loop's blocks once; returns (header label of the clone,
   redirector for the back edge).  The clone's back edges to the original
   header are retargeted to [next]. *)
let clone_iteration (f : Func.t) (cfg : Cfg.t) (loop : Loops.t) ~suffix ~next
    ~force_body (c : Loops.counted) =
  let blocks = List.map (fun i -> Cfg.block cfg i) (Intset.elements loop.Loops.body) in
  let label_map, cloned, _ =
    Util.clone_blocks ~locals_only:true f blocks ~label_suffix:suffix
  in
  let header_label = Cfg.label cfg loop.Loops.header in
  let orig_in_map l = Hashtbl.find_opt label_map l in
  List.iter
    (fun (b : Block.t) ->
      b.Block.term <-
        Instr.map_term_labels
          (fun l ->
            match orig_in_map l with
            | Some l' -> l'
            | None -> if String.equal l header_label then next else l)
          b.Block.term)
    cloned;
  (* clone's own header: force it straight into the body when the trip is
     statically known to continue *)
  let cheader =
    List.find
      (fun (b : Block.t) ->
        String.equal b.Block.label (Hashtbl.find label_map header_label))
      cloned
  in
  (if force_body then
     match cheader.Block.term with
     | Instr.Cbr { if_true; if_false; _ } ->
       let body_side =
         if String.equal c.Loops.exit_label if_false then if_true else if_false
       in
       (* the exit label was not remapped; body side was *)
       ignore body_side;
       let body_label = Hashtbl.find label_map c.Loops.body_label in
       cheader.Block.term <- Instr.Br body_label
     | _ -> ());
  (* wait: the clone's back-edge-to-header went through orig_in_map
     (header is part of the loop body set), so it stays internal; the
     latch must instead jump to [next].  Fix that up here. *)
  let clatch_label = Hashtbl.find label_map (Cfg.label cfg c.Loops.latch) in
  let clatch = List.find (fun (b : Block.t) -> String.equal b.Block.label clatch_label) cloned in
  let cheader_label = Hashtbl.find label_map header_label in
  clatch.Block.term <-
    Instr.map_term_labels
      (fun l -> if String.equal l cheader_label then next else l)
      clatch.Block.term;
  Func.(f.blocks <- f.blocks @ cloned);
  Hashtbl.find label_map header_label

let run_unroll_once (config : Pass.config) (m : Modul.t) =
  let changed = ref false in
  List.iter
    (fun (f : Func.t) ->
      let cfg = Cfg.of_func f in
      let defs = Defs.compute f in
      let loops = Loops.find cfg in
      (* unroll innermost loops only (standard), one per pass invocation
         per function to keep the CFG fresh *)
      let innermost =
        List.filter
          (fun l ->
            not
              (List.exists
                 (fun l' ->
                   l' != l && Intset.mem l'.Loops.header l.Loops.body)
                 loops))
          loops
      in
      (try
         List.iter
           (fun loop ->
             match Loops.as_counted cfg defs loop with
             | None -> ()
             | Some c ->
               let body_size =
                 Intset.fold
                   (fun bi acc -> acc + Block.instr_count (Cfg.block cfg bi))
                   loop.Loops.body 0
               in
               let init = iv_init cfg defs c in
               let trip =
                 match init with
                 | Some (Value.Imm i) -> Loops.trip_count c ~init:(Some i)
                 | _ -> None
               in
               (match trip with
               | Some n
                 when n > 0 && n <= 64
                      && n * body_size <= config.Pass.unroll_threshold ->
                 (* full unroll: chain n forced copies, then fall into the
                    original header whose compare now fails *)
                 let header_label = Cfg.label cfg loop.Loops.header in
                 let preheader_label, _ = Util.ensure_preheader f cfg loop in
                 let cfg = Cfg.of_func f in
                 let next = ref header_label in
                 for k = n downto 1 do
                   next :=
                     clone_iteration f cfg loop
                       ~suffix:(Printf.sprintf ".u%d" k)
                       ~next:!next ~force_body:true c
                 done;
                 let preheader = Func.find_block_exn f preheader_label in
                 preheader.Block.term <- Instr.Br !next;
                 changed := true;
                 raise Exit
               | _ ->
                 (* partial unroll: factor F copies per main-loop round with
                    a remainder loop (the original), guarded against
                    wraparound by requiring a small immediate bound *)
                 let factor = min config.Pass.unroll_max_factor 4 in
                 let small_bound =
                   match (c.Loops.bound, c.Loops.cmp_op) with
                   | Value.Imm b, Instr.Slt ->
                     Int64.compare b (-1_000_000_000L) > 0
                     && Int64.compare b 1_000_000_000L < 0
                   | Value.Imm b, Instr.Ult ->
                     (* unsigned: bound must stay >= 0 after the F-1 bias *)
                     Int64.compare b (Int64.of_int config.Pass.unroll_max_factor)
                       >= 0
                     && Int64.compare b 1_000_000_000L < 0
                   | _ -> false
                 in
                 if
                   (not config.Pass.unroll_only_if_smaller)
                   && factor >= 2 && small_bound && c.Loops.step = 1L
                   && (c.Loops.cmp_op = Instr.Slt || c.Loops.cmp_op = Instr.Ult)
                   && body_size * factor <= config.Pass.unroll_threshold
                   && body_size >= 2
                 then begin
                   let bound_i =
                     match c.Loops.bound with Value.Imm b -> b | _ -> assert false
                   in
                   let header_label = Cfg.label cfg loop.Loops.header in
                   let preheader_label, _ = Util.ensure_preheader f cfg loop in
                   let cfg = Cfg.of_func f in
                   (* main loop: new header checks iv < bound-(F-1) *)
                   let mh_label = Func.fresh_label f "unroll.header" in
                   let next = ref mh_label in
                   for k = factor downto 1 do
                     next :=
                       clone_iteration f cfg loop
                         ~suffix:(Printf.sprintf ".p%d" k)
                         ~next:!next ~force_body:(k > 1) c
                   done;
                   (* the first copy keeps its compare but must exit to the
                      remainder loop (original header), which it already
                      does; the new main header tests the F-step guard *)
                   let cond = Func.fresh_reg f in
                   let mh =
                     Block.create
                       ~instrs:
                         [ Instr.Cmp
                             { dst = cond; ty = c.Loops.iv_ty; op = c.Loops.cmp_op;
                               a = Value.Reg c.Loops.iv;
                               b =
                                 Value.Imm
                                   (Eval.norm c.Loops.iv_ty
                                      (Int64.sub bound_i (Int64.of_int (factor - 1)))) } ]
                       ~term:
                         (Instr.Cbr
                            { cond = Value.Reg cond; if_true = !next;
                              if_false = header_label })
                       mh_label
                   in
                   Func.add_block f mh;
                   (* main-loop copies chain 1 -> 2 -> ... -> F -> mh; make
                      the last copy jump back to mh instead of the original
                      header: clone_iteration already pointed copy F at mh *)
                   let preheader = Func.find_block_exn f preheader_label in
                   preheader.Block.term <- Instr.Br mh_label;
                   changed := true;
                   raise Exit
                 end))
           innermost
       with Exit -> ()))
    m.Modul.funcs;
  !changed

(* ------------------------------------------------------------------ *)
(* loop deletion                                                       *)
(* ------------------------------------------------------------------ *)

let run_loop_deletion (_config : Pass.config) (m : Modul.t) =
  let changed = ref false in
  List.iter
    (fun (f : Func.t) ->
      let progress = ref true in
      while !progress do
        progress := false;
        let cfg = Cfg.of_func f in
        let defs = Defs.compute f in
        let loops = Loops.find cfg in
        (try
           List.iter
             (fun loop ->
               match Loops.as_counted cfg defs loop with
               | Some c
                 when (not (Util.loop_has_memory_effects cfg loop))
                      && Intset.cardinal (Loops.exit_targets cfg loop) = 1
                      && Hashtbl.length (defs_used_outside cfg loop) = 0
                      && c.Loops.step > 0L
                      && (c.Loops.cmp_op = Instr.Slt || c.Loops.cmp_op = Instr.Ult)
                 ->
                 (* side-effect-free counted loop with no escaping values:
                    the whole thing is dead *)
                 let header_label = Cfg.label cfg loop.Loops.header in
                 Util.redirect_edges f ~from:header_label ~to_:c.Loops.exit_label;
                 Intset.iter
                   (fun bi -> Func.remove_block f (Cfg.label cfg bi))
                   loop.Loops.body;
                 ignore (Util.remove_unreachable_blocks f);
                 changed := true;
                 progress := true;
                 raise Exit
               | _ -> ())
             loops
         with Exit -> ())
      done)
    m.Modul.funcs;
  !changed

(* ------------------------------------------------------------------ *)
(* loop rotation                                                       *)
(* ------------------------------------------------------------------ *)

let run_loop_rotate (_config : Pass.config) (m : Modul.t) =
  let changed = ref false in
  List.iter
    (fun (f : Func.t) ->
      let cfg = Cfg.of_func f in
      let defs = Defs.compute f in
      let loops = Loops.find cfg in
      (try
         List.iter
           (fun loop ->
             match Loops.as_counted cfg defs loop with
             | Some c when loop.Loops.header <> c.Loops.latch -> begin
               let header = Cfg.block cfg loop.Loops.header in
               if List.for_all Instr.is_pure header.Block.instrs
                  && List.length header.Block.instrs <= 4
               then begin
                 (* duplicate the header's compare into the preheader and
                    the latch; the loop becomes bottom-tested *)
                 let preheader_label, _ = Util.ensure_preheader f cfg loop in
                 let preheader = Func.find_block_exn f preheader_label in
                 let latch = Cfg.block cfg c.Loops.latch in
                 let clone_into (b : Block.t) =
                   let _, cloned, reg_map =
                     Util.clone_blocks f
                       [ Block.create ~instrs:header.Block.instrs
                           ~term:header.Block.term "tmp" ]
                       ~label_suffix:".rot"
                   in
                   let cb = List.hd cloned in
                   Func.remove_block f cb.Block.label;
                   b.Block.instrs <- b.Block.instrs @ cb.Block.instrs;
                   b.Block.term <- cb.Block.term;
                   ignore reg_map
                 in
                 clone_into preheader;
                 clone_into latch;
                 (* the original header becomes a plain body entry *)
                 header.Block.instrs <- [];
                 header.Block.term <- Instr.Br c.Loops.body_label;
                 changed := true;
                 raise Exit
               end
             end
             | _ -> ())
           loops
       with Exit -> ()))
    m.Modul.funcs;
  !changed

(* ------------------------------------------------------------------ *)
(* loop-simplify / lcssa                                               *)
(* ------------------------------------------------------------------ *)

let run_loop_simplify (_config : Pass.config) (m : Modul.t) =
  let changed = ref false in
  List.iter
    (fun (f : Func.t) ->
      let cfg = Cfg.of_func f in
      List.iter
        (fun loop ->
          match Loops.preheader cfg loop with
          | Some _ -> ()
          | None ->
            ignore (Util.ensure_preheader f cfg loop);
            changed := true)
        (Loops.find cfg))
    m.Modul.funcs;
  !changed

(* LCSSA-style exit copies: values defined in a loop and used outside are
   rerouted through a copy in the exit block — the extra movs/recomputed
   addresses the paper blames for loop-pass overhead on zkVMs (§4.1). *)
let run_lcssa (_config : Pass.config) (m : Modul.t) =
  let changed = ref false in
  List.iter
    (fun (f : Func.t) ->
      let cfg = Cfg.of_func f in
      let defs = Defs.compute f in
      let reg_tys = Func.reg_types f in
      List.iter
        (fun loop ->
          match Intset.elements (Loops.exit_targets cfg loop) with
          | [ exit_i ] ->
            let exit_block = Cfg.block cfg exit_i in
            let escaping = defs_used_outside cfg loop in
            Hashtbl.iter
              (fun r () ->
                if Defs.is_single_def defs r then begin
                  let t = Func.fresh_reg f in
                  let ty = Option.value ~default:Ty.I32 (Hashtbl.find_opt reg_tys r) in
                  exit_block.Block.instrs <-
                    Instr.Mov { dst = t; ty; src = Value.Reg r }
                    :: exit_block.Block.instrs;
                  (* outside uses (other than the copy) read the copy *)
                  Array.iteri
                    (fun bi (b : Block.t) ->
                      if not (Intset.mem bi loop.Loops.body) then begin
                        let subst v =
                          match v with
                          | Value.Reg x when x = r -> Value.Reg t
                          | v -> v
                        in
                        b.Block.instrs <-
                          List.map
                            (fun i ->
                              match Instr.def i with
                              | Some d when d = t -> i
                              | _ -> Instr.map_values subst i)
                            b.Block.instrs;
                        b.Block.term <- Instr.map_term_values subst b.Block.term
                      end)
                    cfg.Cfg.blocks;
                  changed := true
                end)
              escaping
          | _ -> ())
        (Loops.find cfg))
    m.Modul.funcs;
  !changed

(* ------------------------------------------------------------------ *)
(* induction-variable strength reduction (indvars / loop-reduce)       *)
(* ------------------------------------------------------------------ *)

let run_indvars (_config : Pass.config) (m : Modul.t) =
  let changed = ref false in
  List.iter
    (fun (f : Func.t) ->
      let cfg = Cfg.of_func f in
      let defs = Defs.compute f in
      List.iter
        (fun loop ->
          match Loops.as_counted cfg defs loop with
          | Some c when Ty.equal c.Loops.iv_ty Ty.I32 -> begin
            match iv_init cfg defs c with
            | Some init ->
              let preheader_label, _ = Util.ensure_preheader f cfg loop in
              let inv = Util.loop_invariance cfg defs loop in
              let budget = ref 4 in
              (* edits to the preheader and latch are deferred: the latch
                 is usually also the block being rewritten *)
              let pre_adds = ref [] in
              let latch_adds = ref [] in
              Intset.iter
                (fun bi ->
                  let b = Cfg.block cfg bi in
                  b.Block.instrs <-
                    List.map
                      (fun i ->
                        match i with
                        | Instr.Addr
                            { dst; base; index = Value.Reg idx; scale; offset }
                          when idx = c.Loops.iv && !budget > 0 && scale <> 0
                               && Util.loop_invariant_value inv base ->
                          decr budget;
                          changed := true;
                          let ptr = Func.fresh_reg f in
                          let init_addr = Func.fresh_reg f in
                          pre_adds :=
                            !pre_adds
                            @ [ Instr.Addr
                                  { dst = init_addr; base; index = init; scale;
                                    offset };
                                Instr.Mov
                                  { dst = ptr; ty = Ty.Ptr;
                                    src = Value.Reg init_addr } ];
                          let stepped = Func.fresh_reg f in
                          latch_adds :=
                            !latch_adds
                            @ [ Instr.Addr
                                  { dst = stepped; base = Value.Reg ptr;
                                    index = Value.Imm c.Loops.step; scale;
                                    offset = 0 };
                                Instr.Mov
                                  { dst = ptr; ty = Ty.Ptr;
                                    src = Value.Reg stepped } ];
                          Instr.Mov { dst; ty = Ty.Ptr; src = Value.Reg ptr }
                        | i -> i)
                      b.Block.instrs)
                loop.Loops.body;
              if !pre_adds <> [] then begin
                let preheader = Func.find_block_exn f preheader_label in
                preheader.Block.instrs <- preheader.Block.instrs @ !pre_adds;
                let latch = Cfg.block cfg c.Loops.latch in
                latch.Block.instrs <- latch.Block.instrs @ !latch_adds
              end
            | None -> ()
          end
          | _ -> ())
        (Loops.find cfg))
    m.Modul.funcs;
  !changed

(* ------------------------------------------------------------------ *)
(* loop-data-prefetch                                                  *)
(* ------------------------------------------------------------------ *)

let run_prefetch (config : Pass.config) (m : Modul.t) =
  if not config.Pass.prefetch then false
  else begin
    let changed = ref false in
    List.iter
      (fun (f : Func.t) ->
        let cfg = Cfg.of_func f in
        let defs = Defs.compute f in
        List.iter
          (fun loop ->
            match Loops.as_counted cfg defs loop with
            | Some c -> begin
              let inv = Util.loop_invariance cfg defs loop in
              let budget = ref 2 in
              Intset.iter
                (fun bi ->
                  let b = Cfg.block cfg bi in
                  b.Block.instrs <-
                    List.concat_map
                      (fun i ->
                        match i with
                        | Instr.Load { ty; addr = Value.Reg a; _ }
                          when !budget > 0 -> begin
                          match Defs.def_of defs a with
                          | Some
                              (Instr.Addr
                                 { base; index = Value.Reg idx; scale; offset;
                                   _ })
                            when idx = c.Loops.iv
                                 && Util.loop_invariant_value inv base
                            ->
                            decr budget;
                            changed := true;
                            (* touch the line ~16 elements ahead *)
                            let pa = Func.fresh_reg f in
                            let pv = Func.fresh_reg f in
                            [ i;
                              Instr.Addr
                                { dst = pa; base; index = Value.Reg idx; scale;
                                  offset = offset + (16 * max scale 4) };
                              Instr.Load { dst = pv; ty; addr = Value.Reg pa } ]
                          | _ -> [ i ]
                        end
                        | i -> [ i ])
                      b.Block.instrs)
                loop.Loops.body
            end
            | None -> ())
          (Loops.find cfg))
      m.Modul.funcs;
    !changed
  end

(* LLVM's loop passes require loops in simplified + LCSSA form; licm runs
   the normalizations first, which is where the paper's "extra movs and
   recomputed addresses" overhead enters (§4.1). *)
let run_licm_full config m =
  let a = run_loop_simplify config m in
  let b = run_lcssa config m in
  let c = run_licm config m in
  a || b || c

(* one unroll per function per round; iterate so a single pass invocation
   reaches every candidate loop *)
let run_unroll config m =
  let changed = ref false in
  let rounds = ref 0 in
  while run_unroll_once config m && !rounds < 16 do
    changed := true;
    incr rounds
  done;
  !changed

let () =
  Pass.register "licm" "hoist loop-invariant computation to preheaders"
    run_licm_full;
  Pass.register "loop-unroll" "full and partial unrolling of counted loops"
    run_unroll;
  Pass.register "loop-deletion" "delete side-effect-free dead loops"
    run_loop_deletion;
  Pass.register "loop-rotate" "bottom-test loops by duplicating the header"
    run_loop_rotate;
  Pass.register "loop-simplify" "canonicalize loops with dedicated preheaders"
    run_loop_simplify;
  Pass.register "lcssa" "reroute loop-escaping values through exit copies"
    run_lcssa;
  Pass.register "indvars" "strength-reduce array addressing on induction variables"
    run_indvars;
  Pass.register "loop-reduce" "loop strength reduction (alias analysis entry)"
    run_indvars;
  Pass.register "loop-data-prefetch" "insert software prefetch loads in loops"
    run_prefetch
