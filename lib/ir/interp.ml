(** Reference IR interpreter.

    This is the semantic oracle: every workload is run under the
    interpreter and under the compiled RV32 emulator, and the results must
    agree; every optimization pass must preserve interpreter behaviour.

    Alloca slots are assigned statically per call frame (one slot per
    [Alloca] instruction), matching the code generator's frame layout
    discipline, so executing an [Alloca] twice yields the same address. *)

exception Trap of string
exception Out_of_fuel

type result = {
  return_value : int64 option;
  instrs_executed : int;
}

type state = {
  m : Modul.t;
  mem : Memory.t;
  globals : (string, int32) Hashtbl.t;
  mutable sp : int32;              (* bump stack for allocas *)
  mutable executed : int;
  mutable fuel : int;
  block_maps : (string, (string, Block.t) Hashtbl.t) Hashtbl.t;
}

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

let eval_value st (env : int64 array) = function
  | Value.Reg r -> env.(r)
  | Value.Imm i -> i
  | Value.Glob g -> begin
    match Hashtbl.find_opt st.globals g with
    | Some a -> Eval.norm32 (Int64.of_int32 a)
    | None -> trap "unknown global %s" g
  end

let extern_mem st =
  { Extern.load32 = (fun a -> Memory.load32 st.mem a);
    store32 = (fun a v -> Memory.store32 st.mem a v) }

(* Pre-assign a frame slot offset to each Alloca dst in the function. *)
let alloca_layout (f : Func.t) =
  let slots = Hashtbl.create 4 in
  let total = ref 0 in
  Func.iter_instrs f (fun _ i ->
      match i with
      | Instr.Alloca { dst; size } ->
        if not (Hashtbl.mem slots dst) then begin
          let aligned = Layout.align_up size 8 in
          Hashtbl.replace slots dst !total;
          total := !total + aligned
        end
      | _ -> ());
  (slots, Layout.align_up !total 8)

let rec run_func st (f : Func.t) (args : int64 list) : int64 option =
  let env = Array.make (max 1 f.Func.next_reg) 0L in
  List.iteri
    (fun i (r, ty) ->
      let v = try List.nth args i with _ -> trap "%s: missing argument %d" f.name i in
      env.(r) <- Eval.norm ty v)
    f.params;
  let slots, frame_size = alloca_layout f in
  let saved_sp = st.sp in
  st.sp <- Int32.sub st.sp (Int32.of_int frame_size);
  let frame_base = st.sp in
  let result = exec_block st f env ~slots ~frame_base (Func.entry f) in
  st.sp <- saved_sp;
  result

and exec_block st f env ~slots ~frame_base (block : Block.t) : int64 option =
  List.iter (fun i -> exec_instr st f env ~slots ~frame_base i) block.Block.instrs;
  match block.Block.term with
  | Instr.Ret v -> Option.map (eval_value st env) v
  | Br l -> exec_block st f env ~slots ~frame_base (find_block st f l)
  | Cbr { cond; if_true; if_false } ->
    let l = if Eval.to_bool (eval_value st env cond) then if_true else if_false in
    exec_block st f env ~slots ~frame_base (find_block st f l)

and find_block st (f : Func.t) label =
  let table =
    match Hashtbl.find_opt st.block_maps f.Func.name with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 16 in
      List.iter (fun (b : Block.t) -> Hashtbl.replace t b.label b) f.blocks;
      Hashtbl.replace st.block_maps f.Func.name t;
      t
  in
  match Hashtbl.find_opt table label with
  | Some b -> b
  | None -> trap "%s: no block %s" f.name label

and exec_instr st f env ~slots ~frame_base (i : Instr.t) =
  st.executed <- st.executed + 1;
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then raise Out_of_fuel;
  let ev = eval_value st env in
  match i with
  | Instr.Bin { dst; ty; op; a; b } -> env.(dst) <- Eval.binop ty op (ev a) (ev b)
  | Cmp { dst; ty; op; a; b } -> env.(dst) <- Eval.cmp ty op (ev a) (ev b)
  | Select { dst; ty; cond; if_true; if_false } ->
    env.(dst) <- Eval.norm ty (if Eval.to_bool (ev cond) then ev if_true else ev if_false)
  | Mov { dst; ty; src } -> env.(dst) <- Eval.norm ty (ev src)
  | Cast { dst; op; src } -> env.(dst) <- Eval.cast op (ev src)
  | Load { dst; ty; addr } ->
    env.(dst) <- Memory.load_ty st.mem ty (Int64.to_int32 (ev addr))
  | Store { ty; addr; src } ->
    let a = Int64.to_int32 (ev addr) in
    Memory.store_ty st.mem ty a (ev src)
  | Addr { dst; base; index; scale; offset } ->
    env.(dst) <- Eval.addr ~base:(ev base) ~index:(ev index) ~scale ~offset
  | Alloca { dst; _ } ->
    let off = Hashtbl.find slots dst in
    env.(dst) <- Eval.norm32 (Int64.of_int32 (Int32.add frame_base (Int32.of_int off)))
  | Call { dst; callee; args } -> begin
    let callee_f =
      match Modul.find_func st.m callee with
      | Some g -> g
      | None -> trap "%s: call to unknown function %s" f.Func.name callee
    in
    let argv = List.map ev args in
    match (run_func st callee_f argv, dst) with
    | Some v, Some d ->
      env.(d) <- Eval.norm (Option.value ~default:Ty.I32 callee_f.ret) v
    | None, Some _ -> trap "%s returned no value to a binding call" callee
    | _, None -> ()
  end
  | Precompile { dst; name; args } -> begin
    let argv = Array.of_list (List.map ev args) in
    match (Extern.run name (extern_mem st) argv, dst) with
    | Some v, Some d -> env.(d) <- Eval.norm32 v
    | None, Some _ -> trap "precompile %s returned no value to a binding call" name
    | _, None -> ()
  end

(** Run [main] of module [m].  [fuel] bounds the executed instruction
    count (default 200M). *)
let run ?(fuel = 200_000_000) (m : Modul.t) : result =
  let mem = Memory.create () in
  let table, _end = Layout.place_globals m in
  List.iter
    (fun (g : Modul.global) ->
      Memory.init_global mem (Hashtbl.find table g.gname) g.init)
    m.globals;
  let st =
    { m; mem; globals = table; sp = Layout.stack_top; executed = 0; fuel;
      block_maps = Hashtbl.create 8 }
  in
  let f = Modul.main m in
  let return_value = run_func st f [] in
  { return_value; instrs_executed = st.executed }

(** Convenience: the i32 checksum returned by [main]. *)
let checksum ?fuel m =
  match (run ?fuel m).return_value with
  | Some v -> Eval.norm32 v
  | None -> raise (Trap "main returned void")
