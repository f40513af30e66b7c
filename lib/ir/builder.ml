(** Imperative IR construction API, in the style of LLVM's IRBuilder.

    Provides raw block/terminator control plus structured helpers
    ([for_], [while_], [if_]) that emit the canonical loop shape the loop
    passes recognize:

    {v
      preheader:  iv := init ; br header
      header:     t := cmp iv bound ; cbr t, body, exit
      body:       ... ; iv := iv + step ; br header
      exit:
    v}

    Mutable loop variables are ordinary registers written more than once
    ([var] / [set]); the IR is not SSA. *)

type t = {
  func : Func.t;
  modul : Modul.t;
  mutable cur : Block.t;
  mutable sealed : bool;  (* current block already has its terminator *)
}

(* ------------------------------------------------------------------ *)
(* Function and block management                                       *)
(* ------------------------------------------------------------------ *)

let emit b instr =
  if b.sealed then
    invalid_arg
      (Printf.sprintf "Builder: emitting into sealed block %s in %s"
         b.cur.Block.label b.func.Func.name);
  b.cur.Block.instrs <- b.cur.Block.instrs @ [ instr ]

let set_term b term =
  if b.sealed then
    invalid_arg
      (Printf.sprintf "Builder: block %s already terminated" b.cur.Block.label);
  b.cur.Block.term <- term;
  b.sealed <- true

let fresh_label b hint = Func.fresh_label b.func hint

(** Create a block with [label] and make it current.  The previous block
    must already be terminated. *)
let start_block b label =
  if not b.sealed then
    invalid_arg
      (Printf.sprintf "Builder: starting %s but %s is unterminated" label
         b.cur.Block.label);
  let blk = Block.create label in
  Func.add_block b.func blk;
  b.cur <- blk;
  b.sealed <- false

(* ------------------------------------------------------------------ *)
(* Terminators                                                         *)
(* ------------------------------------------------------------------ *)

let ret b v = set_term b (Instr.Ret v)
let br b label = set_term b (Instr.Br label)
let cbr b cond if_true if_false = set_term b (Instr.Cbr { cond; if_true; if_false })

(* ------------------------------------------------------------------ *)
(* Value emission                                                      *)
(* ------------------------------------------------------------------ *)

let fresh_reg b = Func.fresh_reg b.func

let bin b ty op a bb =
  let dst = fresh_reg b in
  emit b (Instr.Bin { dst; ty; op; a; b = bb });
  Value.Reg dst

let add ?(ty = Ty.I32) b x y = bin b ty Instr.Add x y
let sub ?(ty = Ty.I32) b x y = bin b ty Instr.Sub x y
let mul ?(ty = Ty.I32) b x y = bin b ty Instr.Mul x y
let sdiv ?(ty = Ty.I32) b x y = bin b ty Instr.Div x y
let srem ?(ty = Ty.I32) b x y = bin b ty Instr.Rem x y
let udiv ?(ty = Ty.I32) b x y = bin b ty Instr.Udiv x y
let urem ?(ty = Ty.I32) b x y = bin b ty Instr.Urem x y
let and_ ?(ty = Ty.I32) b x y = bin b ty Instr.And x y
let or_ ?(ty = Ty.I32) b x y = bin b ty Instr.Or x y
let xor ?(ty = Ty.I32) b x y = bin b ty Instr.Xor x y
let shl ?(ty = Ty.I32) b x y = bin b ty Instr.Shl x y
let lshr ?(ty = Ty.I32) b x y = bin b ty Instr.Lshr x y
let ashr ?(ty = Ty.I32) b x y = bin b ty Instr.Ashr x y

let icmp ?(ty = Ty.I32) b op a bb =
  let dst = fresh_reg b in
  emit b (Instr.Cmp { dst; ty; op; a; b = bb });
  Value.Reg dst

let select ?(ty = Ty.I32) b cond if_true if_false =
  let dst = fresh_reg b in
  emit b (Instr.Select { dst; ty; cond; if_true; if_false });
  Value.Reg dst

let cast b op src =
  let dst = fresh_reg b in
  emit b (Instr.Cast { dst; op; src });
  Value.Reg dst

let zext b v = cast b Instr.Zext v
let sext b v = cast b Instr.Sext v
let trunc b v = cast b Instr.Trunc v

(** A mutable variable: a register initialized with [init], writable with
    {!set}. *)
let var b ty init =
  let dst = fresh_reg b in
  emit b (Instr.Mov { dst; ty; src = init });
  dst

let set b ty reg v = emit b (Instr.Mov { dst = reg; ty; src = v })

let load ?(ty = Ty.I32) b addr =
  let dst = fresh_reg b in
  emit b (Instr.Load { dst; ty; addr });
  Value.Reg dst

let store ?(ty = Ty.I32) b ~addr src = emit b (Instr.Store { ty; addr; src })

(** [addr b base ~index ~scale ~offset] computes [base + index*scale + offset]. *)
let addr ?(index = Value.Imm 0L) ?(scale = 4) ?(offset = 0) b base =
  let dst = fresh_reg b in
  emit b (Instr.Addr { dst; base; index; scale; offset });
  Value.Reg dst

let alloca b size =
  let dst = fresh_reg b in
  emit b (Instr.Alloca { dst; size });
  Value.Reg dst

let call b ?dst callee args =
  emit b (Instr.Call { dst; callee; args })

(** Call and bind the result. *)
let callv b callee args =
  let dst = fresh_reg b in
  emit b (Instr.Call { dst = Some dst; callee; args });
  Value.Reg dst

let precompile b ?dst name args = emit b (Instr.Precompile { dst; name; args })

let precompilev b name args =
  let dst = fresh_reg b in
  emit b (Instr.Precompile { dst = Some dst; name; args });
  Value.Reg dst

(* ------------------------------------------------------------------ *)
(* Structured control flow                                             *)
(* ------------------------------------------------------------------ *)

(** [for_ b ~from ~bound body] builds a canonical counted loop running
    [iv] from [from] while [iv < bound] (signed), stepping by [step]
    (default 1).  [body] receives the induction value. *)
let for_ ?(ty = Ty.I32) ?(step = Value.Imm 1L) ?(cmp = Instr.Slt) b ~from ~bound body =
  let header = fresh_label b "for.header" in
  let body_l = fresh_label b "for.body" in
  let exit_l = fresh_label b "for.exit" in
  let iv = var b ty from in
  br b header;
  start_block b header;
  let c = icmp ~ty b cmp (Value.Reg iv) bound in
  cbr b c body_l exit_l;
  start_block b body_l;
  body (Value.Reg iv);
  if not b.sealed then begin
    let next = bin b ty Instr.Add (Value.Reg iv) step in
    set b ty iv next;
    br b header
  end;
  start_block b exit_l

(** [while_ b cond body]: [cond] emits the condition into the header block
    each iteration; [body] emits the loop body. *)
let while_ b cond body =
  let header = fresh_label b "while.header" in
  let body_l = fresh_label b "while.body" in
  let exit_l = fresh_label b "while.exit" in
  br b header;
  start_block b header;
  let c = cond () in
  cbr b c body_l exit_l;
  start_block b body_l;
  body ();
  if not b.sealed then br b header;
  start_block b exit_l

(** [if_ b cond ~then_ ()] / [if_ b cond ~then_ ~else_ ()]. *)
let if_ b cond ~then_ ?else_ () =
  let then_l = fresh_label b "if.then" in
  let join_l = fresh_label b "if.join" in
  match else_ with
  | None ->
    cbr b cond then_l join_l;
    start_block b then_l;
    then_ ();
    if not b.sealed then br b join_l;
    start_block b join_l
  | Some else_fn ->
    let else_l = fresh_label b "if.else" in
    cbr b cond then_l else_l;
    start_block b then_l;
    then_ ();
    if not b.sealed then br b join_l;
    start_block b else_l;
    else_fn ();
    if not b.sealed then br b join_l;
    start_block b join_l

(* ------------------------------------------------------------------ *)
(* Module-level helpers                                                *)
(* ------------------------------------------------------------------ *)

(** Define function [name]; [body] receives the builder and the parameter
    values.  The entry block is created automatically. *)
let define m name ~params ?ret body =
  let param_regs = List.mapi (fun i ty -> (i, ty)) params in
  let f = Func.create ~name ~params:param_regs ~ret in
  let entry = Block.create "entry" in
  Func.add_block f entry;
  let b = { func = f; modul = m; cur = entry; sealed = false } in
  body b (List.map (fun (r, _) -> Value.Reg r) param_regs);
  if not b.sealed then
    invalid_arg (Printf.sprintf "Builder.define: %s left unterminated" name);
  Modul.add_func m f;
  f

let global_zero m name bytes =
  Modul.add_global m { Modul.gname = name; init = Modul.Zero bytes };
  Value.Glob name

let global_words m name words =
  Modul.add_global m { Modul.gname = name; init = Modul.Words words };
  Value.Glob name

let imm = Value.imm
let imm64 = Value.imm64
