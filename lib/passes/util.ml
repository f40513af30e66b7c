(** Shared transformation machinery for the passes. *)

open Zkopt_ir
open Zkopt_analysis

(** Substitute value [to_] for every use of register [from] across the
    function (instruction operands and terminators). *)
let replace_uses (f : Func.t) ~(from : Value.reg) ~(to_ : Value.t) =
  let subst v = match v with Value.Reg r when r = from -> to_ | _ -> v in
  Func.iter_blocks f (fun b ->
      b.Block.instrs <- List.map (Instr.map_values subst) b.Block.instrs;
      b.Block.term <- Instr.map_term_values subst b.Block.term)

(** Rewrite each instruction of every block with [fn]; [fn] returns the
    replacement list ([] deletes, singleton keeps/modifies, longer lists
    expand).  Returns whether anything changed. *)
let rewrite_instrs (f : Func.t) fn =
  let changed = ref false in
  Func.iter_blocks f (fun b ->
      let out =
        List.concat_map
          (fun i ->
            let r = fn b i in
            (match r with [ i' ] when i' == i -> () | _ -> changed := true);
            r)
          b.Block.instrs
      in
      b.Block.instrs <- out);
  !changed

(** Delete blocks unreachable from the entry, fixing nothing else (no
    branch can target them, by definition). *)
let remove_unreachable_blocks (f : Func.t) =
  let cfg = Cfg.of_func f in
  match Cfg.unreachable cfg with
  | [] -> false
  | dead ->
    let dead_labels = List.map (Cfg.label cfg) dead in
    List.iter (Func.remove_block f) dead_labels;
    true

(** Redirect every branch to [from] so it targets [to_] instead. *)
let redirect_edges (f : Func.t) ~(from : string) ~(to_ : string) =
  Func.iter_blocks f (fun b ->
      b.Block.term <-
        Instr.map_term_labels (fun l -> if String.equal l from then to_ else l)
          b.Block.term)

(** Split [block] before instruction index [idx]; the tail (instructions
    from [idx] on, plus the original terminator) moves to a fresh block,
    and [block] falls through to it.  Returns the new tail block.  The new
    block is inserted right after [block] in layout order. *)
let split_block (f : Func.t) (block : Block.t) ~(idx : int) : Block.t =
  let rec take k = function
    | [] -> ([], [])
    | x :: tl when k > 0 ->
      let a, b = take (k - 1) tl in
      (x :: a, b)
    | rest -> ([], rest)
  in
  let head, tail = take idx block.Block.instrs in
  let tail_label = Func.fresh_label f (block.Block.label ^ ".split") in
  let tail_block = Block.create ~instrs:tail ~term:block.Block.term tail_label in
  block.Block.instrs <- head;
  block.Block.term <- Instr.Br tail_label;
  (* insert after block in layout order *)
  let rec ins = function
    | [] -> [ tail_block ]
    | b :: tl when b == block -> b :: tail_block :: tl
    | b :: tl -> b :: ins tl
  in
  f.Func.blocks <- ins f.Func.blocks;
  tail_block

(** Clone [blocks] into [caller]'s namespace with fresh labels.

    Register renaming policy: when [rename_regs] (default), registers
    *defined within the cloned set* — plus [also_rename] (e.g. the
    callee's parameters for inlining) — get fresh names; registers
    defined outside (loop invariants, caller values) are left alone.
    With [rename_regs:false] only labels change: the clone shares every
    register with the original, which is what loop unrolling needs so
    loop-carried state flows between the copies.

    Returns (label map, cloned blocks, register map). *)
let clone_blocks ?(rename_regs = true) ?(locals_only = false)
    ?(also_rename = []) (caller : Func.t) (blocks : Block.t list)
    ~(label_suffix : string) =
  let renameable = Hashtbl.create 32 in
  if rename_regs then begin
    List.iter
      (fun (b : Block.t) ->
        List.iter
          (fun i -> Option.iter (fun d -> Hashtbl.replace renameable d ()) (Instr.def i))
          b.Block.instrs)
      blocks;
    List.iter (fun r -> Hashtbl.replace renameable r ()) also_rename;
    if locals_only then begin
      (* keep only iteration-local temporaries: single static definition in
         the whole function, with every use inside the cloned set.  The
         loop-carried state (multi-def registers, escaping values) keeps
         its name so unrolled copies chain correctly. *)
      let defs = Zkopt_analysis.Defs.compute caller in
      let inside_uses = Hashtbl.create 32 in
      let outside = Hashtbl.create 32 in
      List.iter
        (fun (b : Block.t) ->
          List.iter
            (fun i -> List.iter (fun u -> Hashtbl.replace inside_uses u ()) (Instr.uses i))
            b.Block.instrs;
          List.iter (fun u -> Hashtbl.replace inside_uses u ()) (Instr.term_uses b.Block.term))
        blocks;
      Func.iter_blocks caller (fun b ->
          if not (List.memq b blocks) then begin
            List.iter
              (fun i -> List.iter (fun u -> Hashtbl.replace outside u ()) (Instr.uses i))
              b.Block.instrs;
            List.iter (fun u -> Hashtbl.replace outside u ()) (Instr.term_uses b.Block.term)
          end);
      Hashtbl.iter
        (fun r () ->
          if
            (not (Zkopt_analysis.Defs.is_single_def defs r))
            || Hashtbl.mem outside r
          then Hashtbl.remove renameable r)
        (Hashtbl.copy renameable)
    end
  end;
  let reg_map = Hashtbl.create 32 in
  let map_reg r =
    if not (Hashtbl.mem renameable r) then r
    else
      match Hashtbl.find_opt reg_map r with
      | Some r' -> r'
      | None ->
        let r' = Func.fresh_reg caller in
        Hashtbl.replace reg_map r r';
        r'
  in
  let label_map = Hashtbl.create 8 in
  List.iter
    (fun (b : Block.t) ->
      Hashtbl.replace label_map b.Block.label
        (Func.fresh_label caller (b.Block.label ^ label_suffix)))
    blocks;
  let map_label l = Option.value ~default:l (Hashtbl.find_opt label_map l) in
  let map_value = function
    | Value.Reg r -> Value.Reg (map_reg r)
    | v -> v
  in
  let cloned =
    List.map
      (fun (b : Block.t) ->
        let instrs =
          List.map
            (fun i -> Instr.map_def map_reg (Instr.map_values map_value i))
            b.Block.instrs
        in
        let term =
          Instr.map_term_labels map_label
            (Instr.map_term_values map_value b.Block.term)
        in
        Block.create ~instrs ~term (map_label b.Block.label))
      blocks
  in
  (label_map, cloned, reg_map)

(** Ensure the loop has a dedicated preheader block (single edge into the
    header from outside).  Returns its label and whether a block was
    inserted: only an insertion makes [cfg], and the loops found on it,
    stale.  This is the useful half of LLVM's loop-simplify. *)
let ensure_preheader (f : Func.t) (cfg : Cfg.t) (loop : Loops.t) : string * bool =
  let header_label = Cfg.label cfg loop.Loops.header in
  (* reuse only when it branches unconditionally to the header *)
  let reusable p =
    match (Cfg.block cfg p).Block.term with
    | Instr.Br l -> String.equal l header_label
    | _ -> false
  in
  match Loops.preheader cfg loop with
  | Some p when reusable p -> (Cfg.label cfg p, false)
  | Some _ | None ->
    let label = Func.fresh_label f "preheader" in
    let nb = Block.create ~term:(Instr.Br header_label) label in
    (* redirect only out-of-loop edges *)
    Func.iter_blocks f (fun b ->
        let in_loop =
          match Cfg.index_of cfg b.Block.label with
          | Some i -> Intset.mem i loop.Loops.body
          | None -> false
        in
        if not in_loop then
          b.Block.term <-
            Instr.map_term_labels
              (fun l -> if String.equal l header_label then label else l)
              b.Block.term);
    (* place before the header *)
    let rec ins = function
      | [] -> [ nb ]
      | (b : Block.t) :: tl when String.equal b.Block.label header_label ->
        nb :: b :: tl
      | b :: tl -> b :: ins tl
    in
    f.Func.blocks <- ins f.Func.blocks;
    (label, true)

(** What {!loop_invariant_value} knows about one loop: the function's
    [Defs] and the registers the loop body defines, read once from the
    body blocks.  Build one per loop; a pass that moves a def out of the
    body reports it with {!hoisted_out}. *)
type invariance = { defs : Defs.t; inside : (Value.reg, unit) Hashtbl.t }

let loop_invariance (cfg : Cfg.t) (defs : Defs.t) (loop : Loops.t) =
  let inside = Hashtbl.create 32 in
  Intset.iter
    (fun bi ->
      List.iter
        (fun i -> Option.iter (fun d -> Hashtbl.replace inside d ()) (Instr.def i))
        (Cfg.block cfg bi).Block.instrs)
    loop.Loops.body;
  { defs; inside }

(** [r]'s only definition has left the loop body. *)
let hoisted_out (inv : invariance) r = Hashtbl.remove inv.inside r

(** Is [v] invariant with respect to the loop: constant, or a register
    that has a definition (a parameter counts) and none inside the loop
    body.  An outer induction variable is multi-def yet perfectly
    invariant with respect to an inner loop. *)
let loop_invariant_value (inv : invariance) v =
  match v with
  | Value.Imm _ | Value.Glob _ -> true
  | Value.Reg r ->
    Defs.count inv.defs r > 0 && not (Hashtbl.mem inv.inside r)

(** Does the loop body contain any store, call or precompile?  (Barrier
    for load hoisting and several loop transforms.) *)
let loop_has_memory_effects (cfg : Cfg.t) (loop : Loops.t) =
  Intset.exists
    (fun i ->
      List.exists
        (fun ins ->
          match ins with
          | Instr.Store _ | Call _ | Precompile _ -> true
          | _ -> false)
        (Cfg.block cfg i).Block.instrs)
    loop.Loops.body

(** Instruction-count estimate of a function (the unit used by inline and
    unroll thresholds). *)
let size_of_func (f : Func.t) = Func.instr_count f
