(** Dead-code elimination family: trivial DCE, aggressive (liveness-
    marking) DCE, and dead-store elimination. *)

open Zkopt_ir
open Zkopt_analysis

(* remove side-effect-free instructions whose results are never used *)
let run_dce (_config : Pass.config) (m : Modul.t) =
  let changed = ref false in
  List.iter
    (fun (f : Func.t) ->
      let progress = ref true in
      while !progress do
        progress := false;
        let uses = Defs.use_counts f in
        let used r = Hashtbl.mem uses r in
        Func.iter_blocks f (fun b ->
            let keep =
              List.filter
                (fun i ->
                  match Instr.def i with
                  | Some d when Instr.has_no_side_effect i && not (used d) ->
                    progress := true;
                    changed := true;
                    false
                  | _ -> true)
                b.Block.instrs
            in
            b.Block.instrs <- keep)
      done)
    m.Modul.funcs;
  !changed

(* aggressive DCE: mark transitively-required instructions from effect
   roots; everything else goes, in one sweep *)
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
      (* one walk indexes every register's defining instructions and marks
         the roots: effectful instructions' operands, terminator operands *)
      let defs_of = Hashtbl.create 64 in
      Func.iter_blocks f (fun b ->
          List.iter
            (fun i ->
              Option.iter (fun d -> Hashtbl.add defs_of d i) (Instr.def i);
              if not (Instr.has_no_side_effect i) then
                List.iter mark_reg (Instr.uses i))
            b.Block.instrs;
          List.iter mark_reg (Instr.term_uses b.Block.term));
      (* propagate: all defs of a live reg are live; their operands too.
         A pop visits only its register's defs; the live set is a
         closure, so pop order cannot change it. *)
      while not (Queue.is_empty work) do
        List.iter
          (fun i -> List.iter mark_reg (Instr.uses i))
          (Hashtbl.find_all defs_of (Queue.pop work))
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

(* Dead-store elimination, per block, syntactic address equality.  A
   store is dead if a later store writes the same (address, type) with no
   intervening load/call/precompile. *)
let run_dse (_config : Pass.config) (m : Modul.t) =
  let changed = ref false in
  List.iter
    (fun (f : Func.t) ->
      let defs = Defs.compute f in
      Func.iter_blocks f (fun b ->
          (* scan backward: keep set of (addr, ty) already overwritten *)
          let overwritten : (Value.t * Ty.t) list ref = ref [] in
          let keep_rev =
            List.fold_left
              (fun acc i ->
                match i with
                | Instr.Store { ty; addr; _ } when Defs.is_stable defs addr ->
                  if
                    List.exists
                      (fun (a, t) -> Value.equal a addr && Ty.equal t ty)
                      !overwritten
                  then begin
                    changed := true;
                    acc (* dead store dropped *)
                  end
                  else begin
                    overwritten := (addr, ty) :: !overwritten;
                    i :: acc
                  end
                | Instr.Load _ | Call _ | Precompile _ | Store _ ->
                  overwritten := [];
                  i :: acc
                | _ -> i :: acc)
              []
              (List.rev b.Block.instrs)
          in
          b.Block.instrs <- keep_rev))
    m.Modul.funcs;
  !changed

let () =
  Pass.register "dce" "delete side-effect-free instructions with unused results"
    run_dce;
  Pass.register "adce"
    "aggressive DCE: liveness marking from effect roots, one sweep" run_adce;
  Pass.register "dse" "delete stores overwritten before any possible read"
    run_dse
