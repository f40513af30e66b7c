(** The quadratic forms of licm's hoisting core and of adce, kept as the
    oracles for {!Zkopt_passes.Loopopts.run_licm} and
    {!Zkopt_passes.Dce.run_adce}.

    Every invariance query here scans the whole function, licm rebuilds
    [Defs] before each hoist and [Cfg] plus [Loops] twice per loop, and
    each adce worklist pop walks every instruction.  Slow but plainly
    right: [test/test_passes.ml] requires the library passes to print the
    same IR as these, including the hoist order that the
    [licm_max_hoist] cap makes observable. *)

open Zkopt_ir
open Zkopt_analysis
open Zkopt_passes

(** Is [v] invariant with respect to [loop]: constant, or a register with
    a definition and none inside the loop body.  Scans every block of
    [cfg] on each call. *)
let loop_invariant_value (cfg : Cfg.t) (defs : Defs.t) (loop : Loops.t) v =
  match v with
  | Value.Imm _ | Value.Glob _ -> true
  | Value.Reg r ->
    if Defs.is_param defs r && Defs.is_stable defs (Value.Reg r) then true
    else begin
      let defined_inside = ref false in
      let has_def = ref (Defs.is_param defs r) in
      Array.iteri
        (fun i (b : Block.t) ->
          List.iter
            (fun ins ->
              if Instr.def ins = Some r then begin
                has_def := true;
                if Intset.mem i loop.Loops.body then defined_inside := true
              end)
            b.Block.instrs)
        cfg.Cfg.blocks;
      !has_def && not !defined_inside
    end

(** licm's hoisting core, without the loop-simplify and lcssa runs that
    the registered [licm] pass makes first. *)
let run_licm (config : Pass.config) (m : Modul.t) =
  let changed = ref false in
  List.iter
    (fun (f : Func.t) ->
      let initial = Loops.find (Cfg.of_func f) in
      let order =
        List.map
          (fun l -> ((Cfg.block (Cfg.of_func f) l.Loops.header).Block.label, l.Loops.depth))
          initial
        |> List.sort (fun (_, d1) (_, d2) -> compare d2 d1)
      in
      List.iter
        (fun (header_label, _) ->
          let cfg = Cfg.of_func f in
          match
            List.find_opt
              (fun l ->
                String.equal (Cfg.label cfg l.Loops.header) header_label)
              (Loops.find cfg)
          with
          | None -> ()
          | Some loop ->
            let preheader_label, _ = Util.ensure_preheader f cfg loop in
            let cfg = Cfg.of_func f in
            let loop =
              List.find
                (fun l -> String.equal (Cfg.label cfg l.Loops.header) header_label)
                (Loops.find cfg)
            in
            let preheader = Func.find_block_exn f preheader_label in
            let has_mem = Util.loop_has_memory_effects cfg loop in
            let hoisted = ref 0 in
            let progress = ref true in
            while !progress && !hoisted < config.Pass.licm_max_hoist do
              progress := false;
              let defs = Defs.compute f in
              (try
                 Intset.iter
                   (fun bi ->
                     let b = Cfg.block cfg bi in
                     List.iter
                       (fun i ->
                         let invariant_operands () =
                           List.for_all
                             (fun v ->
                               loop_invariant_value cfg defs loop (Value.Reg v))
                             (Instr.uses i)
                         in
                         let can_hoist =
                           match Instr.def i with
                           | Some d when Defs.is_single_def defs d ->
                             (Loopopts.hoistable i
                             || (match i with
                                | Instr.Load { addr; _ } ->
                                  (not has_mem)
                                  && loop_invariant_value cfg defs loop addr
                                | _ -> false))
                             && invariant_operands ()
                           | _ -> false
                         in
                         if can_hoist then begin
                           b.Block.instrs <-
                             List.filter (fun j -> not (j == i)) b.Block.instrs;
                           preheader.Block.instrs <-
                             preheader.Block.instrs @ [ i ];
                           incr hoisted;
                           changed := true;
                           progress := true;
                           raise Exit
                         end)
                       b.Block.instrs)
                   loop.Loops.body
               with Exit -> ())
            done)
        order)
    m.Modul.funcs;
  !changed

(** Aggressive DCE: mark from effect roots, then walk the whole function
    once per popped register to find its defs. *)
let run_adce (_config : Pass.config) (m : Modul.t) =
  let changed = ref false in
  List.iter
    (fun (f : Func.t) ->
      let live_regs = Hashtbl.create 64 in
      let work = Queue.create () in
      let mark_reg r =
        if not (Hashtbl.mem live_regs r) then begin
          Hashtbl.replace live_regs r ();
          Queue.add r work
        end
      in
      Func.iter_blocks f (fun b ->
          List.iter
            (fun i ->
              if not (Instr.has_no_side_effect i) then
                List.iter mark_reg (Instr.uses i))
            b.Block.instrs;
          List.iter mark_reg (Instr.term_uses b.Block.term));
      while not (Queue.is_empty work) do
        let r = Queue.pop work in
        Func.iter_instrs f (fun _ i ->
            if Instr.def i = Some r then List.iter mark_reg (Instr.uses i))
      done;
      Func.iter_blocks f (fun b ->
          let keep =
            List.filter
              (fun i ->
                match Instr.def i with
                | Some d
                  when Instr.has_no_side_effect i && not (Hashtbl.mem live_regs d)
                  ->
                  changed := true;
                  false
                | _ -> true)
              b.Block.instrs
          in
          b.Block.instrs <- keep))
    m.Modul.funcs;
  !changed
