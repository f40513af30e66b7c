(** Interprocedural and remaining scalar passes: sparse conditional
    constant propagation (sccp/ipsccp), global DCE, constant-global
    folding, dead-argument elimination, function merging, tail-call
    elimination, purity-based call CSE (function-attrs/attributor),
    div+rem pairing, constant hoisting, correlated propagation, sinking
    and speculative hoisting. *)

open Zkopt_ir
open Zkopt_analysis

(* ------------------------------------------------------------------ *)
(* sccp                                                                *)
(* ------------------------------------------------------------------ *)

(* constants of single-def regs, to a fixpoint, with branch folding *)
let run_sccp (_config : Pass.config) (m : Modul.t) =
  let changed = ref false in
  List.iter
    (fun (f : Func.t) ->
      let progress = ref true in
      let rounds = ref 0 in
      while !progress && !rounds < 8 do
        progress := false;
        incr rounds;
        let defs = Defs.compute f in
        (* known constants: single-def regs whose def is Mov of Imm *)
        let consts = Hashtbl.create 16 in
        Func.iter_instrs f (fun _ i ->
            match i with
            | Instr.Mov { dst; src = Value.Imm c; _ }
              when Defs.is_single_def defs dst ->
              Hashtbl.replace consts dst c
            | _ -> ());
        let subst v =
          match v with
          | Value.Reg r -> begin
            match Hashtbl.find_opt consts r with
            | Some c -> Value.Imm c
            | None -> v
          end
          | v -> v
        in
        Func.iter_blocks f (fun b ->
            b.Block.instrs <-
              List.map
                (fun i ->
                  let i' = Instr.map_values subst i in
                  let i' =
                    match Constfold.fold_instr i' with Some x -> x | None -> i'
                  in
                  if i' <> i then progress := true;
                  i')
                b.Block.instrs;
            let t' = Instr.map_term_values subst b.Block.term in
            let t' =
              match t' with
              | Instr.Cbr { cond = Value.Imm c; if_true; if_false } ->
                Instr.Br (if Eval.to_bool c then if_true else if_false)
              | t -> t
            in
            if t' <> b.Block.term then progress := true;
            b.Block.term <- t');
        if Util.remove_unreachable_blocks f then progress := true;
        if !progress then changed := true
      done)
    m.Modul.funcs;
  !changed

(* ipsccp: parameters that receive the same immediate at every call site
   become that constant inside the callee *)
let run_ipsccp (config : Pass.config) (m : Modul.t) =
  let changed = ref false in
  let arg_facts : (string * int, [ `Const of int64 | `Varies ]) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (f : Func.t) ->
      Func.iter_instrs f (fun _ i ->
          match i with
          | Instr.Call { callee; args; _ } ->
            List.iteri
              (fun k arg ->
                let key = (callee, k) in
                let fact =
                  match (arg, Hashtbl.find_opt arg_facts key) with
                  | Value.Imm c, None -> `Const c
                  | Value.Imm c, Some (`Const c') when Int64.equal c c' -> `Const c
                  | _ -> `Varies
                in
                Hashtbl.replace arg_facts key fact)
              args
          | _ -> ()))
    m.Modul.funcs;
  List.iter
    (fun (f : Func.t) ->
      if f.Func.attrs.Func.internal && not (String.equal f.Func.name "main")
      then begin
        let defs = Defs.compute f in
        List.iteri
          (fun k (p, _ty) ->
            match Hashtbl.find_opt arg_facts (f.Func.name, k) with
            | Some (`Const c)
              when Defs.count defs p = 1 ->
              Util.replace_uses f ~from:p ~to_:(Value.Imm c);
              changed := true
            | _ -> ())
          f.Func.params
      end)
    m.Modul.funcs;
  if !changed then ignore (run_sccp config m);
  !changed

(* ------------------------------------------------------------------ *)
(* module-level cleanups                                               *)
(* ------------------------------------------------------------------ *)

(* functions the backend calls implicitly when lowering 64-bit division
   and variable shifts; they must survive DCE whenever such IR exists *)
let implicit_runtime_roots (m : Modul.t) =
  let roots = ref [] in
  let add n = if not (List.mem n !roots) then roots := n :: !roots in
  List.iter
    (fun (f : Func.t) ->
      Func.iter_instrs f (fun _ i ->
          match i with
          | Instr.Bin { ty = Ty.I64; op; b; _ } -> begin
            match (op, b) with
            | Instr.Div, _ -> add "__divdi3"; add "__udivdi3"
            | Instr.Rem, _ -> add "__moddi3"; add "__umoddi3"
            | Instr.Udiv, _ -> add "__udivdi3"
            | Instr.Urem, _ -> add "__umoddi3"
            | Instr.Shl, Value.Reg _ -> add "__ashldi3"
            | Instr.Lshr, Value.Reg _ -> add "__lshrdi3"
            | Instr.Ashr, Value.Reg _ -> add "__ashrdi3"
            | _ -> ()
          end
          | _ -> ()))
    m.Modul.funcs;
  !roots

let run_globaldce (_config : Pass.config) (m : Modul.t) =
  let cg = Callgraph.compute m in
  match
    Callgraph.unreachable_funcs
      ~roots:("main" :: implicit_runtime_roots m)
      m cg
  with
  | [] -> false
  | dead ->
    m.Modul.funcs <-
      List.filter (fun (f : Func.t) -> not (List.mem f.Func.name dead)) m.Modul.funcs;
    true

(* fold loads of never-written globals with initialized data *)
let run_globalopt (_config : Pass.config) (m : Modul.t) =
  (* taint analysis over store addresses *)
  let tainted = Hashtbl.create 8 in
  let taint_all = ref false in
  List.iter
    (fun (f : Func.t) ->
      let defs = Defs.compute f in
      let rec base_global v depth =
        if depth > 8 then None
        else
          match v with
          | Value.Glob g -> Some (`Glob g)
          | Value.Reg r -> begin
            match Defs.def_of defs r with
            | Some (Instr.Addr { base; _ }) -> base_global base (depth + 1)
            | Some (Instr.Alloca _) -> Some `Stack
            | Some (Instr.Mov { src; _ }) -> base_global src (depth + 1)
            | _ -> None
          end
          | Value.Imm _ -> None
      in
      Func.iter_instrs f (fun _ i ->
          match i with
          | Instr.Store { addr; _ } -> begin
            match base_global addr 0 with
            | Some (`Glob g) -> Hashtbl.replace tainted g ()
            | Some `Stack -> ()
            | None -> taint_all := true
          end
          | Precompile { args; _ } ->
            (* precompiles write through pointer arguments *)
            List.iter
              (fun a ->
                match base_global a 0 with
                | Some (`Glob g) -> Hashtbl.replace tainted g ()
                | Some `Stack -> ()
                | None -> taint_all := true)
              args
          | _ -> ()))
    m.Modul.funcs;
  if !taint_all then false
  else begin
    let const_word g idx =
      match Modul.find_global m g with
      | Some { Modul.init = Modul.Words ws; _ }
        when idx >= 0 && idx < Array.length ws ->
        Some ws.(idx)
      | Some { Modul.init = Modul.Zero n; _ } when idx >= 0 && 4 * idx < n ->
        Some 0l
      | _ -> None
    in
    let changed = ref false in
    List.iter
      (fun (f : Func.t) ->
        let defs = Defs.compute f in
        Func.iter_blocks f (fun b ->
            b.Block.instrs <-
              List.map
                (fun i ->
                  match i with
                  | Instr.Load { dst; ty = Ty.I32; addr = Value.Reg a } -> begin
                    match Defs.def_of defs a with
                    | Some
                        (Instr.Addr
                           { base = Value.Glob g; index = Value.Imm idx; scale;
                             offset; _ })
                      when not (Hashtbl.mem tainted g) -> begin
                      let byte = (Int64.to_int idx * scale) + offset in
                      if byte mod 4 = 0 then
                        match const_word g (byte / 4) with
                        | Some w ->
                          changed := true;
                          Instr.Mov
                            { dst; ty = Ty.I32;
                              src = Value.Imm (Eval.norm32 (Int64.of_int32 w)) }
                        | None -> i
                      else i
                    end
                    | _ -> i
                  end
                  | i -> i)
                b.Block.instrs))
      m.Modul.funcs;
    !changed
  end

let run_deadargelim (_config : Pass.config) (m : Modul.t) =
  let changed = ref false in
  List.iter
    (fun (f : Func.t) ->
      if f.Func.attrs.Func.internal && not (String.equal f.Func.name "main")
      then begin
        let uses = Defs.use_counts f in
        let defs = Defs.compute f in
        let dead_idx =
          List.mapi
            (fun k (p, _) ->
              if
                (not (Hashtbl.mem uses p))
                && Defs.count defs p = 1
              then Some k
              else None)
            f.Func.params
          |> List.filter_map Fun.id
        in
        if dead_idx <> [] then begin
          changed := true;
          let keep k = not (List.mem k dead_idx) in
          let params' = List.filteri (fun k _ -> keep k) f.Func.params in
          (* rewriting params in place requires a fresh function record;
             mutate via Obj-free reconstruction: swap in the module *)
          let nf =
            {
              f with
              Func.params = params';
            }
          in
          m.Modul.funcs <-
            List.map (fun (g : Func.t) -> if g == f then nf else g) m.Modul.funcs;
          (* fix every call site *)
          List.iter
            (fun (g : Func.t) ->
              Func.iter_blocks g (fun b ->
                  b.Block.instrs <-
                    List.map
                      (fun i ->
                        match i with
                        | Instr.Call r when String.equal r.callee f.Func.name ->
                          Instr.Call
                            { r with args = List.filteri (fun k _ -> keep k) r.args }
                        | i -> i)
                      b.Block.instrs))
            m.Modul.funcs
        end
      end)
    m.Modul.funcs;
  !changed

(* structural function merging: identical bodies after canonical
   renaming collapse to one *)
let canonical_print (f : Func.t) =
  (* rename registers and labels in order of first appearance *)
  let reg_map = Hashtbl.create 32 in
  let next = ref 0 in
  let canon_reg r =
    match Hashtbl.find_opt reg_map r with
    | Some x -> x
    | None ->
      let x = !next in
      incr next;
      Hashtbl.replace reg_map r x;
      x
  in
  let label_map = Hashtbl.create 8 in
  let lnext = ref 0 in
  let canon_label l =
    match Hashtbl.find_opt label_map l with
    | Some x -> x
    | None ->
      let x = Printf.sprintf "L%d" !lnext in
      incr lnext;
      Hashtbl.replace label_map l x;
      x
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (String.concat ","
       (List.map (fun (p, ty) -> Printf.sprintf "%d:%s" (canon_reg p) (Ty.to_string ty)) f.Func.params));
  Buffer.add_string buf
    (match f.Func.ret with None -> ":void" | Some t -> ":" ^ Ty.to_string t);
  List.iter
    (fun (b : Block.t) ->
      Buffer.add_string buf ("\n" ^ canon_label b.Block.label ^ ":");
      List.iter
        (fun i ->
          let i =
            Instr.map_def canon_reg
              (Instr.map_values
                 (fun v ->
                   match v with
                   | Value.Reg r -> Value.Reg (canon_reg r)
                   | v -> v)
                 i)
          in
          Buffer.add_string buf "\n  ";
          Printer.add_instr buf i)
        b.Block.instrs;
      Buffer.add_string buf "\n  ";
      Printer.add_term buf
        (Instr.map_term_labels canon_label
           (Instr.map_term_values
              (fun v ->
                match v with
                | Value.Reg r -> Value.Reg (canon_reg r)
                | v -> v)
              b.Block.term)))
    f.Func.blocks;
  Buffer.contents buf

let run_mergefunc (_config : Pass.config) (m : Modul.t) =
  let changed = ref false in
  let seen = Hashtbl.create 8 in
  let replaced = Hashtbl.create 4 in
  List.iter
    (fun (f : Func.t) ->
      if (not (String.equal f.Func.name "main")) && f.Func.attrs.Func.internal
      then begin
        let key = canonical_print f in
        match Hashtbl.find_opt seen key with
        | Some canonical -> Hashtbl.replace replaced f.Func.name canonical
        | None -> Hashtbl.replace seen key f.Func.name
      end)
    m.Modul.funcs;
  if Hashtbl.length replaced > 0 then begin
    changed := true;
    List.iter
      (fun (f : Func.t) ->
        Func.iter_blocks f (fun b ->
            b.Block.instrs <-
              List.map
                (fun i ->
                  match i with
                  | Instr.Call r -> begin
                    match Hashtbl.find_opt replaced r.callee with
                    | Some target -> Instr.Call { r with callee = target }
                    | None -> i
                  end
                  | i -> i)
                b.Block.instrs))
      m.Modul.funcs;
    m.Modul.funcs <-
      List.filter
        (fun (f : Func.t) -> not (Hashtbl.mem replaced f.Func.name))
        m.Modul.funcs
  end;
  !changed

(* self tail calls become loops *)
let run_tailcallelim (_config : Pass.config) (m : Modul.t) =
  let changed = ref false in
  List.iter
    (fun (f : Func.t) ->
      let entry_label = (Func.entry f).Block.label in
      let rewrite (b : Block.t) =
        match (List.rev b.Block.instrs, b.Block.term) with
        | Instr.Call { dst; callee; args } :: rest, Instr.Ret ret
          when String.equal callee f.Func.name
               && (match (dst, ret) with
                  | Some d, Some (Value.Reg r) -> d = r
                  | None, None -> true
                  | _ -> false) ->
          (* args -> temps -> params, then loop *)
          let temps =
            List.map2
              (fun (_, ty) arg ->
                let t = Func.fresh_reg f in
                (t, ty, arg))
              f.Func.params args
          in
          let movs_in =
            List.map (fun (t, ty, arg) -> Instr.Mov { dst = t; ty; src = arg }) temps
          in
          let movs_back =
            List.map2
              (fun (p, ty) (t, _, _) ->
                Instr.Mov { dst = p; ty; src = Value.Reg t })
              f.Func.params temps
          in
          b.Block.instrs <- List.rev rest @ movs_in @ movs_back;
          b.Block.term <- Instr.Br entry_label;
          changed := true
        | _ -> ()
      in
      List.iter rewrite f.Func.blocks)
    m.Modul.funcs;
  !changed

(* ------------------------------------------------------------------ *)
(* purity-based call CSE (function-attrs / attributor)                 *)
(* ------------------------------------------------------------------ *)

let pure_functions (m : Modul.t) =
  (* a function is pure if it (transitively) performs no stores,
     precompiles, or calls to impure functions *)
  let impure = Hashtbl.create 8 in
  let mark_progress = ref true in
  let is_locally_impure (f : Func.t) =
    let found = ref false in
    Func.iter_instrs f (fun _ i ->
        match i with
        | Instr.Store _ | Precompile _ | Load _ ->
          (* loads make a function non-CSE-able across stores; treat as
             impure for call-CSE purposes *)
          found := true
        | Call { callee; _ } when Hashtbl.mem impure callee -> found := true
        | _ -> ());
    !found
  in
  List.iter
    (fun (f : Func.t) -> if is_locally_impure f then Hashtbl.replace impure f.Func.name ())
    m.Modul.funcs;
  while !mark_progress do
    mark_progress := false;
    List.iter
      (fun (f : Func.t) ->
        if (not (Hashtbl.mem impure f.Func.name)) && is_locally_impure f then begin
          Hashtbl.replace impure f.Func.name ();
          mark_progress := true
        end)
      m.Modul.funcs
  done;
  fun name -> not (Hashtbl.mem impure name)

let run_function_attrs (_config : Pass.config) (m : Modul.t) =
  (* block-local CSE of pure calls with stable identical arguments *)
  let is_pure = pure_functions m in
  let changed = ref false in
  List.iter
    (fun (f : Func.t) ->
      let defs = Defs.compute f in
      Func.iter_blocks f (fun b ->
          let seen : (string * Value.t list, Value.reg) Hashtbl.t =
            Hashtbl.create 4
          in
          b.Block.instrs <-
            List.map
              (fun i ->
                match i with
                | Instr.Call { dst = Some d; callee; args }
                  when is_pure callee
                       && List.for_all (Defs.is_stable defs) args -> begin
                  match Hashtbl.find_opt seen (callee, args) with
                  | Some prev when Defs.is_single_def defs prev ->
                    changed := true;
                    let ty =
                      match Modul.find_func m callee with
                      | Some cf -> Option.value ~default:Ty.I32 cf.Func.ret
                      | None -> Ty.I32
                    in
                    Instr.Mov { dst = d; ty; src = Value.Reg prev }
                  | _ ->
                    if Defs.is_single_def defs d then
                      Hashtbl.replace seen (callee, args) d;
                    i
                end
                | i -> i)
              b.Block.instrs))
    m.Modul.funcs;
  !changed

(* attributor: same, dominator-scoped *)
let run_attributor (_config : Pass.config) (m : Modul.t) =
  let is_pure = pure_functions m in
  let changed = ref false in
  List.iter
    (fun (f : Func.t) ->
      let defs = Defs.compute f in
      let cfg = Cfg.of_func f in
      let dom = Dom.compute cfg in
      let kids = Dom.children dom in
      let table : (string * Value.t list, Value.reg) Hashtbl.t = Hashtbl.create 8 in
      let rec walk bi =
        let b = Cfg.block cfg bi in
        let added = ref [] in
        b.Block.instrs <-
          List.map
            (fun i ->
              match i with
              | Instr.Call { dst = Some d; callee; args }
                when is_pure callee && List.for_all (Defs.is_stable defs) args
                -> begin
                match Hashtbl.find_opt table (callee, args) with
                | Some prev when Defs.is_single_def defs prev ->
                  changed := true;
                  let ty =
                    match Modul.find_func m callee with
                    | Some cf -> Option.value ~default:Ty.I32 cf.Func.ret
                    | None -> Ty.I32
                  in
                  Instr.Mov { dst = d; ty; src = Value.Reg prev }
                | _ ->
                  if
                    Defs.is_single_def defs d
                    && not (Hashtbl.mem table (callee, args))
                  then begin
                    Hashtbl.replace table (callee, args) d;
                    added := (callee, args) :: !added
                  end;
                  i
              end
              | i -> i)
            b.Block.instrs;
        List.iter walk kids.(bi);
        List.iter (Hashtbl.remove table) !added
      in
      if Cfg.size cfg > 0 then walk 0)
    m.Modul.funcs;
  !changed

(* ------------------------------------------------------------------ *)
(* small scalar cleanups                                               *)
(* ------------------------------------------------------------------ *)

(* div-rem-pairs: a rem whose matching div exists becomes mul+sub (3
   cheap ops beat a second division on CPUs; the zkVM config disables
   this since both cost the same there) *)
let run_div_rem_pairs (config : Pass.config) (m : Modul.t) =
  if not config.Pass.div_to_shift then false
  else begin
    let changed = ref false in
    List.iter
      (fun (f : Func.t) ->
        let defs = Defs.compute f in
        (* single-def division results by (ty, op, a, b) *)
        let divs = Hashtbl.create 8 in
        Func.iter_instrs f (fun _ i ->
            match i with
            | Instr.Bin { dst; ty; op = (Instr.Div | Udiv) as op; a; b }
              when Defs.is_single_def defs dst && Defs.is_stable defs a
                   && Defs.is_stable defs b ->
              Hashtbl.replace divs (ty, op, a, b) dst
            | _ -> ());
        let cfg = Cfg.of_func f in
        let dom = Dom.compute cfg in
        let block_of_def = Hashtbl.create 16 in
        Array.iteri
          (fun bi (b : Block.t) ->
            List.iter
              (fun i ->
                Option.iter (fun d -> Hashtbl.replace block_of_def d bi) (Instr.def i))
              b.Block.instrs)
          cfg.Cfg.blocks;
        Array.iteri
          (fun bi (b : Block.t) ->
            b.Block.instrs <-
              List.concat_map
                (fun i ->
                  match i with
                  | Instr.Bin { dst; ty; op = (Instr.Rem | Urem) as op; a; b = bb }
                    when Defs.is_stable defs a && Defs.is_stable defs bb -> begin
                    let div_op =
                      if op = Instr.Rem then Instr.Div else Instr.Udiv
                    in
                    match Hashtbl.find_opt divs (ty, div_op, a, bb) with
                    | Some q
                      when (match Hashtbl.find_opt block_of_def q with
                           | Some qb -> Dom.dominates dom qb bi
                           | None -> false)
                           && q <> dst ->
                      changed := true;
                      let t = Func.fresh_reg f in
                      [ Instr.Bin
                          { dst = t; ty; op = Instr.Mul; a = Value.Reg q; b = bb };
                        Instr.Bin { dst; ty; op = Instr.Sub; a; b = Value.Reg t } ]
                    | _ -> [ i ]
                  end
                  | i -> [ i ])
                b.Block.instrs)
          cfg.Cfg.blocks)
      m.Modul.funcs;
    !changed
  end

(* consthoist: large immediates used several times in a function get a
   single materialization in the entry block *)
let run_consthoist (_config : Pass.config) (m : Modul.t) =
  let changed = ref false in
  List.iter
    (fun (f : Func.t) ->
      let counts = Hashtbl.create 16 in
      Func.iter_instrs f (fun _ i ->
          List.iter
            (fun v ->
              match v with
              | Value.Imm c
                when Int64.compare (Int64.abs c) 2048L >= 0
                     && Int64.compare (Int64.abs c) 0xFFFF_FFFFL <= 0 ->
                Hashtbl.replace counts c
                  (1 + Option.value ~default:0 (Hashtbl.find_opt counts c))
              | _ -> ())
            (match i with
            | Instr.Bin { a; b; _ } | Cmp { a; b; _ } -> [ a; b ]
            | Select { cond; if_true; if_false; _ } -> [ cond; if_true; if_false ]
            | Mov _ -> [] (* movs are materializations already *)
            | Store { src; _ } -> [ src ]
            | _ -> []));
      let hoisted = Hashtbl.create 4 in
      Hashtbl.iter
        (fun c n ->
          if n >= 3 && Hashtbl.length hoisted < 4 then begin
            let r = Func.fresh_reg f in
            Hashtbl.replace hoisted c r
          end)
        counts;
      if Hashtbl.length hoisted > 0 then begin
        changed := true;
        let entry = Func.entry f in
        let movs =
          Hashtbl.fold
            (fun c r acc ->
              Instr.Mov { dst = r; ty = Ty.I32; src = Value.Imm c } :: acc)
            hoisted []
        in
        entry.Block.instrs <- movs @ entry.Block.instrs;
        let subst v =
          match v with
          | Value.Imm c -> begin
            match Hashtbl.find_opt hoisted c with
            | Some r -> Value.Reg r
            | None -> v
          end
          | v -> v
        in
        Func.iter_blocks f (fun b ->
            b.Block.instrs <-
              List.map
                (fun i ->
                  match i with
                  | Instr.Bin ({ ty = Ty.I32; _ } as r) ->
                    Instr.Bin { r with a = subst r.a; b = subst r.b }
                  | Cmp ({ ty = Ty.I32; _ } as r) ->
                    Cmp { r with a = subst r.a; b = subst r.b }
                  | i -> i)
                b.Block.instrs)
      end)
    m.Modul.funcs;
  !changed

(* correlated-propagation: inside the true edge of [cbr (x == c)], x is c *)
let run_correlated (_config : Pass.config) (m : Modul.t) =
  let changed = ref false in
  List.iter
    (fun (f : Func.t) ->
      let defs = Defs.compute f in
      let cfg = Cfg.of_func f in
      Array.iteri
        (fun _bi (b : Block.t) ->
          match b.Block.term with
          | Instr.Cbr { cond = Value.Reg c; if_true; if_false } -> begin
            match Defs.def_of defs c with
            | Some (Instr.Cmp { op = Instr.Eq; a = Value.Reg x; b = Value.Imm k;
                                ty = Ty.I32; _ })
              when Defs.is_stable defs (Value.Reg x)
                   && not (String.equal if_true if_false) -> begin
              match Cfg.index_of cfg if_true with
              | Some ti when cfg.Cfg.pred.(ti) = [ Cfg.index_of_exn cfg b.Block.label ]
                -> begin
                let tb = Cfg.block cfg ti in
                let subst v =
                  match v with
                  | Value.Reg r when r = x -> Value.Imm k
                  | v -> v
                in
                let before = tb.Block.instrs in
                tb.Block.instrs <- List.map (Instr.map_values subst) tb.Block.instrs;
                if tb.Block.instrs <> before then changed := true
              end
              | _ -> ()
            end
            | _ -> ()
          end
          | _ -> ())
        cfg.Cfg.blocks)
    m.Modul.funcs;
  !changed

(* sink: move single-use pure computations into the block of their use *)
let run_sink (_config : Pass.config) (m : Modul.t) =
  let changed = ref false in
  List.iter
    (fun (f : Func.t) ->
      let defs = Defs.compute f in
      let cfg = Cfg.of_func f in
      let dom = Dom.compute cfg in
      (* block containing every use of each reg (None if several) *)
      let use_block : (Value.reg, int option) Hashtbl.t = Hashtbl.create 32 in
      Array.iteri
        (fun bi (b : Block.t) ->
          let note r =
            match Hashtbl.find_opt use_block r with
            | None -> Hashtbl.replace use_block r (Some bi)
            | Some (Some bj) when bj = bi -> ()
            | _ -> Hashtbl.replace use_block r None
          in
          List.iter (fun i -> List.iter note (Instr.uses i)) b.Block.instrs;
          List.iter note (Instr.term_uses b.Block.term))
        cfg.Cfg.blocks;
      Array.iteri
        (fun bi (b : Block.t) ->
          let sunk = ref [] in
          b.Block.instrs <-
            List.filter
              (fun i ->
                match Instr.def i with
                | Some d
                  when Instr.is_pure i && Defs.is_single_def defs d
                       && List.for_all
                            (fun u -> Defs.is_stable defs (Value.Reg u))
                            (Instr.uses i) -> begin
                  match Hashtbl.find_opt use_block d with
                  | Some (Some target)
                    when target <> bi && Dom.dominates dom bi target
                         (* do not sink into loops: the target must not be
                            executed more often than the def *)
                         && not
                              (List.exists
                                 (fun l -> Intset.mem target l.Loops.body
                                           && not (Intset.mem bi l.Loops.body))
                                 (Loops.find cfg)) ->
                    sunk := (target, i) :: !sunk;
                    changed := true;
                    false
                  | _ -> true
                end
                | _ -> true)
              b.Block.instrs;
          (* !sunk is in reverse block order; prepending in that order
             restores the original relative order at the target *)
          List.iter
            (fun (target, i) ->
              let tb = Cfg.block cfg target in
              tb.Block.instrs <- i :: tb.Block.instrs)
            !sunk)
        cfg.Cfg.blocks)
    m.Modul.funcs;
  !changed

(* speculative-execution: hoist leading pure instructions of a branch
   target above the branch (reduces mispredict shadows on OoO hardware;
   pure overhead on zkVMs -> disabled by the zkVM config) *)
let run_speculative (config : Pass.config) (m : Modul.t) =
  if not config.Pass.speculate then false
  else begin
    let changed = ref false in
    List.iter
      (fun (f : Func.t) ->
        let defs = Defs.compute f in
        let cfg = Cfg.of_func f in
        Array.iteri
          (fun bi (b : Block.t) ->
            match b.Block.term with
            | Instr.Cbr { if_true; if_false; _ } ->
              let try_hoist label =
                match Cfg.index_of cfg label with
                | Some ti when cfg.Cfg.pred.(ti) = [ bi ] && ti <> bi ->
                  let tb = Cfg.block cfg ti in
                  let rec take n = function
                    | i :: rest
                      when n > 0 && Instr.is_pure i
                           && (match Instr.def i with
                              | Some d -> Defs.is_single_def defs d
                              | None -> false)
                           && List.for_all
                                (fun u -> Defs.is_stable defs (Value.Reg u))
                                (Instr.uses i) ->
                      let hoisted, rest' = take (n - 1) rest in
                      (i :: hoisted, rest')
                    | rest -> ([], rest)
                  in
                  let hoisted, rest = take 2 tb.Block.instrs in
                  if hoisted <> [] then begin
                    (* operands must be defined outside the target *)
                    let ok =
                      List.for_all
                        (fun i ->
                          List.for_all
                            (fun u ->
                              not
                                (List.exists
                                   (fun j -> Instr.def j = Some u)
                                   tb.Block.instrs))
                            (Instr.uses i))
                        hoisted
                    in
                    if ok then begin
                      b.Block.instrs <- b.Block.instrs @ hoisted;
                      tb.Block.instrs <- rest;
                      changed := true
                    end
                  end
                | _ -> ()
              in
              try_hoist if_true;
              if not (String.equal if_true if_false) then try_hoist if_false
            | _ -> ())
          cfg.Cfg.blocks)
      m.Modul.funcs;
    !changed
  end

let () =
  Pass.register "sccp" "sparse conditional constant propagation" run_sccp;
  Pass.register "ipsccp" "interprocedural constant argument propagation"
    run_ipsccp;
  Pass.register "globaldce" "remove functions unreachable from main"
    run_globaldce;
  Pass.register "globalopt" "fold loads of never-written initialized globals"
    run_globalopt;
  Pass.register "deadargelim" "drop unused parameters of internal functions"
    run_deadargelim;
  Pass.register "mergefunc" "merge structurally identical functions"
    run_mergefunc;
  Pass.register "tailcallelim" "turn self tail calls into loops" run_tailcallelim;
  Pass.register "function-attrs" "infer purity; CSE pure calls within blocks"
    run_function_attrs;
  Pass.register "attributor" "infer purity; CSE pure calls across dominators"
    run_attributor;
  Pass.register "div-rem-pairs" "compute rem from an existing matching div"
    run_div_rem_pairs;
  Pass.register "consthoist" "share materializations of large constants"
    run_consthoist;
  Pass.register "correlated-propagation"
    "propagate equality facts into branch targets" run_correlated;
  Pass.register "sink" "move computations next to their single use" run_sink;
  Pass.register "speculative-execution"
    "hoist pure code above conditional branches" run_speculative
