(** The [Printf] form of {!Zkopt_ir.Printer}, kept as its oracle: every
    line is formatted into a fresh string and concatenated.
    [test/test_ir.ml] requires the library's one-[Buffer] printer to
    produce the same bytes for [modul], [func], [instr] and [term]. *)

open Zkopt_ir

let value = Value.to_string

let instr (i : Instr.t) =
  match i with
  | Bin { dst; ty; op; a; b } ->
    Printf.sprintf "%%r%d = %s %s %s, %s" dst (Instr.binop_to_string op)
      (Ty.to_string ty) (value a) (value b)
  | Cmp { dst; ty; op; a; b } ->
    Printf.sprintf "%%r%d = icmp %s %s %s, %s" dst (Instr.cmpop_to_string op)
      (Ty.to_string ty) (value a) (value b)
  | Select { dst; ty; cond; if_true; if_false } ->
    Printf.sprintf "%%r%d = select %s %s, %s, %s" dst (Ty.to_string ty)
      (value cond) (value if_true) (value if_false)
  | Mov { dst; ty; src } ->
    Printf.sprintf "%%r%d = mov %s %s" dst (Ty.to_string ty) (value src)
  | Cast { dst; op; src } ->
    let name = match op with Instr.Zext -> "zext" | Sext -> "sext" | Trunc -> "trunc" in
    Printf.sprintf "%%r%d = %s %s" dst name (value src)
  | Load { dst; ty; addr } ->
    Printf.sprintf "%%r%d = load %s, %s" dst (Ty.to_string ty) (value addr)
  | Store { ty; addr; src } ->
    Printf.sprintf "store %s %s, %s" (Ty.to_string ty) (value src) (value addr)
  | Addr { dst; base; index; scale; offset } ->
    Printf.sprintf "%%r%d = addr %s + %s*%d + %d" dst (value base) (value index)
      scale offset
  | Alloca { dst; size } -> Printf.sprintf "%%r%d = alloca %d" dst size
  | Call { dst; callee; args } ->
    let args = String.concat ", " (List.map value args) in
    (match dst with
    | Some d -> Printf.sprintf "%%r%d = call @%s(%s)" d callee args
    | None -> Printf.sprintf "call @%s(%s)" callee args)
  | Precompile { dst; name; args } ->
    let args = String.concat ", " (List.map value args) in
    (match dst with
    | Some d -> Printf.sprintf "%%r%d = precompile @%s(%s)" d name args
    | None -> Printf.sprintf "precompile @%s(%s)" name args)

let term (t : Instr.term) =
  match t with
  | Ret None -> "ret void"
  | Ret (Some v) -> Printf.sprintf "ret %s" (value v)
  | Br l -> Printf.sprintf "br %s" l
  | Cbr { cond; if_true; if_false } ->
    Printf.sprintf "cbr %s, %s, %s" (value cond) if_true if_false

let block (b : Block.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (b.label ^ ":\n");
  List.iter (fun i -> Buffer.add_string buf ("  " ^ instr i ^ "\n")) b.instrs;
  Buffer.add_string buf ("  " ^ term b.term ^ "\n");
  Buffer.contents buf

let func (f : Func.t) =
  let buf = Buffer.create 1024 in
  let params =
    String.concat ", "
      (List.map (fun (r, ty) -> Printf.sprintf "%s %%r%d" (Ty.to_string ty) r) f.Func.params)
  in
  let ret = match f.ret with None -> "void" | Some t -> Ty.to_string t in
  Buffer.add_string buf (Printf.sprintf "func %s @%s(%s) {\n" ret f.name params);
  List.iter (fun b -> Buffer.add_string buf (block b)) f.blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let modul (m : Modul.t) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (g : Modul.global) ->
      Buffer.add_string buf
        (Printf.sprintf "global @%s : %d bytes\n" g.gname (Modul.global_size g)))
    m.globals;
  List.iter (fun f -> Buffer.add_string buf ("\n" ^ func f)) m.funcs;
  Buffer.contents buf
