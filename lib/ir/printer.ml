(** Textual rendering of IR, for debugging, golden tests and the
    structural digest ({!Zkopt_exec.Fingerprint} appends {!add_func}).

    Everything is written straight into one [Buffer] with no [Printf] and
    no intermediate string; the string forms ([instr], [func], [modul],
    ...) wrap the [add_] writers.  [test/test_ir.ml] pins the bytes to
    the [Printf] printer kept as [Zkopt_oracle.Ref_printer]: a byte that
    moved would move every module digest and with it every compile-cache
    key. *)

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(** [string_of_int n], appended. *)
let add_int buf n =
  if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end

(** [Int64.to_string i], appended. *)
let add_int64 buf i =
  let n = Int64.to_int i in
  if Int64.equal (Int64.of_int n) i then add_int buf n
  else Buffer.add_string buf (Int64.to_string i)

let rec add_hex buf n =
  if n >= 16 then add_hex buf (n lsr 4);
  Buffer.add_char buf (String.unsafe_get "0123456789abcdef" (n land 15))

(** [Printf.sprintf "%lx" w], appended: the 32 bits of [w] as unsigned
    lowercase hex with no leading zeros. *)
let add_hex32 buf (w : int32) = add_hex buf (Int32.to_int w land 0xFFFF_FFFF)

let add_reg buf r =
  Buffer.add_string buf "%r";
  add_int buf r

let add_value buf (v : Value.t) =
  match v with
  | Reg r -> add_reg buf r
  | Imm i -> add_int64 buf i
  | Glob g ->
    Buffer.add_char buf '@';
    Buffer.add_string buf g

let add_ty buf t = Buffer.add_string buf (Ty.to_string t)

(* "%r<dst> = <op>" *)
let add_def buf dst op =
  add_reg buf dst;
  Buffer.add_string buf " = ";
  Buffer.add_string buf op

let add_comma_value buf v =
  Buffer.add_string buf ", ";
  add_value buf v

let add_call buf dst kind callee args =
  (match dst with
  | Some d -> add_def buf d kind
  | None -> Buffer.add_string buf kind);
  Buffer.add_string buf " @";
  Buffer.add_string buf callee;
  Buffer.add_char buf '(';
  (match args with
  | [] -> ()
  | a :: rest ->
    add_value buf a;
    List.iter (add_comma_value buf) rest);
  Buffer.add_char buf ')'

let add_instr buf (i : Instr.t) =
  match i with
  | Bin { dst; ty; op; a; b } ->
    add_def buf dst (Instr.binop_to_string op);
    Buffer.add_char buf ' ';
    add_ty buf ty;
    Buffer.add_char buf ' ';
    add_value buf a;
    add_comma_value buf b
  | Cmp { dst; ty; op; a; b } ->
    add_def buf dst "icmp ";
    Buffer.add_string buf (Instr.cmpop_to_string op);
    Buffer.add_char buf ' ';
    add_ty buf ty;
    Buffer.add_char buf ' ';
    add_value buf a;
    add_comma_value buf b
  | Select { dst; ty; cond; if_true; if_false } ->
    add_def buf dst "select ";
    add_ty buf ty;
    Buffer.add_char buf ' ';
    add_value buf cond;
    add_comma_value buf if_true;
    add_comma_value buf if_false
  | Mov { dst; ty; src } ->
    add_def buf dst "mov ";
    add_ty buf ty;
    Buffer.add_char buf ' ';
    add_value buf src
  | Cast { dst; op; src } ->
    add_def buf dst
      (match op with Instr.Zext -> "zext " | Sext -> "sext " | Trunc -> "trunc ");
    add_value buf src
  | Load { dst; ty; addr } ->
    add_def buf dst "load ";
    add_ty buf ty;
    add_comma_value buf addr
  | Store { ty; addr; src } ->
    Buffer.add_string buf "store ";
    add_ty buf ty;
    Buffer.add_char buf ' ';
    add_value buf src;
    add_comma_value buf addr
  | Addr { dst; base; index; scale; offset } ->
    add_def buf dst "addr ";
    add_value buf base;
    Buffer.add_string buf " + ";
    add_value buf index;
    Buffer.add_char buf '*';
    add_int buf scale;
    Buffer.add_string buf " + ";
    add_int buf offset
  | Alloca { dst; size } ->
    add_def buf dst "alloca ";
    add_int buf size
  | Call { dst; callee; args } -> add_call buf dst "call" callee args
  | Precompile { dst; name; args } -> add_call buf dst "precompile" name args

let add_term buf (t : Instr.term) =
  match t with
  | Ret None -> Buffer.add_string buf "ret void"
  | Ret (Some v) ->
    Buffer.add_string buf "ret ";
    add_value buf v
  | Br l ->
    Buffer.add_string buf "br ";
    Buffer.add_string buf l
  | Cbr { cond; if_true; if_false } ->
    Buffer.add_string buf "cbr ";
    add_value buf cond;
    Buffer.add_string buf ", ";
    Buffer.add_string buf if_true;
    Buffer.add_string buf ", ";
    Buffer.add_string buf if_false

let add_block buf (b : Block.t) =
  Buffer.add_string buf b.label;
  Buffer.add_string buf ":\n";
  List.iter
    (fun i ->
      Buffer.add_string buf "  ";
      add_instr buf i;
      Buffer.add_char buf '\n')
    b.instrs;
  Buffer.add_string buf "  ";
  add_term buf b.term;
  Buffer.add_char buf '\n'

let add_func buf (f : Func.t) =
  Buffer.add_string buf "func ";
  Buffer.add_string buf (match f.ret with None -> "void" | Some t -> Ty.to_string t);
  Buffer.add_string buf " @";
  Buffer.add_string buf f.name;
  Buffer.add_char buf '(';
  List.iteri
    (fun k (r, ty) ->
      if k > 0 then Buffer.add_string buf ", ";
      add_ty buf ty;
      Buffer.add_char buf ' ';
      add_reg buf r)
    f.params;
  Buffer.add_string buf ") {\n";
  List.iter (add_block buf) f.blocks;
  Buffer.add_string buf "}\n"

let add_modul buf (m : Modul.t) =
  List.iter
    (fun (g : Modul.global) ->
      Buffer.add_string buf "global @";
      Buffer.add_string buf g.gname;
      Buffer.add_string buf " : ";
      add_int buf (Modul.global_size g);
      Buffer.add_string buf " bytes\n")
    m.globals;
  List.iter
    (fun f ->
      Buffer.add_char buf '\n';
      add_func buf f)
    m.funcs

let to_string size add x =
  let buf = Buffer.create size in
  add buf x;
  Buffer.contents buf

let value = to_string 16 add_value
let instr = to_string 64 add_instr
let term = to_string 32 add_term
let block = to_string 256 add_block
let func = to_string 1024 add_func
let modul = to_string 4096 add_modul
