(** Instruction selection: IR functions to symbolic RV32 assembly over
    virtual registers (ids >= 32; 0..31 are the physical registers).

    The selector is deliberately naive — immediates are rematerialized at
    each use, compare+branch fusion is the only peephole — so that the
    performance effects of the IR-level optimization passes are visible in
    the generated code, as they are with a real -O0-style backend.

    64-bit IR values are expanded to register pairs; 64-bit division and
    variable shifts call the runtime function
    {!Zkopt_runtime.Runtime.helper} names for the operation, which the
    runtime link adds to every module that has such an operation. *)

open Zkopt_ir

exception Unsupported of string

let vreg_base = 32

type ctx = {
  f : Func.t;
  m : Modul.t;
  reg_types : (Value.reg, Ty.t) Hashtbl.t;
  mutable next_vreg : int;
  (* IR register -> machine vreg (lo) and, for I64, hi *)
  lo_of : (Value.reg, int) Hashtbl.t;
  hi_of : (Value.reg, int) Hashtbl.t;
  alloca_off : (Value.reg, int) Hashtbl.t;
  alloca_bytes : int;
  mutable items : Asm.item list;  (* reversed *)
  mutable has_calls : bool;
}

let fresh ctx =
  let v = ctx.next_vreg in
  ctx.next_vreg <- v + 1;
  v

let emit ctx it = ctx.items <- it :: ctx.items

let emit_op ctx op rd rs1 rs2 = emit ctx (Asm.Ins (Isa.Op (op, rd, rs1, rs2)))
let emit_opi ctx op rd rs1 imm = emit ctx (Asm.Ins (Isa.Opi (op, rd, rs1, imm)))
let emit_li ctx rd v = emit ctx (Asm.Li (rd, v))
let emit_mv ctx rd rs = emit_opi ctx Isa.ADDI rd rs 0

let ty_of_reg ctx r =
  match Hashtbl.find_opt ctx.reg_types r with
  | Some t -> t
  | None -> Ty.I32 (* dead register never read; any type will do *)

let lo_vreg ctx r =
  match Hashtbl.find_opt ctx.lo_of r with
  | Some v -> v
  | None ->
    let v = fresh ctx in
    Hashtbl.replace ctx.lo_of r v;
    v

let hi_vreg ctx r =
  match Hashtbl.find_opt ctx.hi_of r with
  | Some v -> v
  | None ->
    let v = fresh ctx in
    Hashtbl.replace ctx.hi_of r v;
    v

(* Materialize a 32-bit value into a vreg. *)
let val32 ctx (v : Value.t) : int =
  match v with
  | Value.Reg r -> lo_vreg ctx r
  | Imm i ->
    let t = fresh ctx in
    emit_li ctx t (Int64.to_int32 i);
    t
  | Glob g ->
    let t = fresh ctx in
    emit ctx (Asm.La (t, g));
    t

(* Materialize a 64-bit value into a (lo, hi) vreg pair. *)
let val64 ctx (v : Value.t) : int * int =
  match v with
  | Value.Reg r -> (lo_vreg ctx r, hi_vreg ctx r)
  | Imm i ->
    let lo = fresh ctx and hi = fresh ctx in
    emit_li ctx lo (Int64.to_int32 i);
    emit_li ctx hi (Int64.to_int32 (Int64.shift_right_logical i 32));
    (lo, hi)
  | Glob _ -> raise (Unsupported "global address as i64")

let imm_of = function Value.Imm i -> Some (Int64.to_int i) | _ -> None

(* ------------------------------------------------------------------ *)
(* 32-bit operations                                                   *)
(* ------------------------------------------------------------------ *)

let bin32 ctx (op : Instr.binop) dst a b =
  let simple_iop =
    (* ops with an I-type form usable when b is a small immediate *)
    match op with
    | Instr.Add -> Some Isa.ADDI
    | And -> Some Isa.ANDI
    | Or -> Some Isa.ORI
    | Xor -> Some Isa.XORI
    | _ -> None
  in
  match (simple_iop, imm_of b) with
  | Some iop, Some i when Asm.fits_imm12 i ->
    let ra = val32 ctx a in
    emit_opi ctx iop dst ra i
  | _ -> begin
    match (op, imm_of b) with
    | Instr.Shl, Some i -> emit_opi ctx Isa.SLLI dst (val32 ctx a) (i land 31)
    | Lshr, Some i -> emit_opi ctx Isa.SRLI dst (val32 ctx a) (i land 31)
    | Ashr, Some i -> emit_opi ctx Isa.SRAI dst (val32 ctx a) (i land 31)
    | Sub, Some i when Asm.fits_imm12 (-i) ->
      emit_opi ctx Isa.ADDI dst (val32 ctx a) (-i)
    | _ ->
      let ra = val32 ctx a in
      let rb = val32 ctx b in
      let rop =
        match op with
        | Instr.Add -> Isa.ADD | Sub -> SUB | Mul -> MUL | Mulhu -> MULHU
        | Div -> DIV
        | Rem -> REM | Udiv -> DIVU | Urem -> REMU | And -> AND | Or -> OR
        | Xor -> XOR | Shl -> SLL | Lshr -> SRL | Ashr -> SRA
      in
      emit_op ctx rop dst ra rb
  end

let cmp32_into ctx (op : Instr.cmpop) dst ra rb =
  match op with
  | Instr.Eq ->
    emit_op ctx Isa.XOR dst ra rb;
    emit_opi ctx Isa.SLTIU dst dst 1
  | Ne ->
    emit_op ctx Isa.XOR dst ra rb;
    emit_op ctx Isa.SLTU dst Isa.zero dst
  | Slt -> emit_op ctx Isa.SLT dst ra rb
  | Ult -> emit_op ctx Isa.SLTU dst ra rb
  | Sgt -> emit_op ctx Isa.SLT dst rb ra
  | Ugt -> emit_op ctx Isa.SLTU dst rb ra
  | Sle ->
    emit_op ctx Isa.SLT dst rb ra;
    emit_opi ctx Isa.XORI dst dst 1
  | Ule ->
    emit_op ctx Isa.SLTU dst rb ra;
    emit_opi ctx Isa.XORI dst dst 1
  | Sge ->
    emit_op ctx Isa.SLT dst ra rb;
    emit_opi ctx Isa.XORI dst dst 1
  | Uge ->
    emit_op ctx Isa.SLTU dst ra rb;
    emit_opi ctx Isa.XORI dst dst 1

(* ------------------------------------------------------------------ *)
(* 64-bit operations                                                   *)
(* ------------------------------------------------------------------ *)

let bin64 ctx (op : Instr.binop) (dlo, dhi) a b =
  let runtime_call () =
    let name = Option.get (Zkopt_runtime.Runtime.helper op) in
    let alo, ahi = val64 ctx a in
    let blo, bhi = val64 ctx b in
    emit_mv ctx 10 alo; emit_mv ctx 11 ahi;
    emit_mv ctx 12 blo; emit_mv ctx 13 bhi;
    emit ctx (Asm.CallSym name);
    ctx.has_calls <- true;
    emit_mv ctx dlo 10;
    emit_mv ctx dhi 11
  in
  match op with
  | Instr.Add ->
    let alo, ahi = val64 ctx a in
    let blo, bhi = val64 ctx b in
    let carry = fresh ctx in
    (* dlo may alias alo/blo through register coalescing of IR movs; use a
       temp for the low word before the carry is computed from it *)
    let tlo = fresh ctx in
    emit_op ctx Isa.ADD tlo alo blo;
    emit_op ctx Isa.SLTU carry tlo alo;
    emit_op ctx Isa.ADD dhi ahi bhi;
    emit_op ctx Isa.ADD dhi dhi carry;
    emit_mv ctx dlo tlo
  | Sub ->
    let alo, ahi = val64 ctx a in
    let blo, bhi = val64 ctx b in
    let borrow = fresh ctx in
    emit_op ctx Isa.SLTU borrow alo blo;
    let tlo = fresh ctx in
    emit_op ctx Isa.SUB tlo alo blo;
    emit_op ctx Isa.SUB dhi ahi bhi;
    emit_op ctx Isa.SUB dhi dhi borrow;
    emit_mv ctx dlo tlo
  | Mul ->
    let alo, ahi = val64 ctx a in
    let blo, bhi = val64 ctx b in
    let t1 = fresh ctx and t2 = fresh ctx and thi = fresh ctx in
    emit_op ctx Isa.MULHU thi alo blo;
    emit_op ctx Isa.MUL t1 alo bhi;
    emit_op ctx Isa.ADD thi thi t1;
    emit_op ctx Isa.MUL t2 ahi blo;
    emit_op ctx Isa.ADD thi thi t2;
    emit_op ctx Isa.MUL dlo alo blo;
    emit_mv ctx dhi thi
  | And | Or | Xor ->
    let alo, ahi = val64 ctx a in
    let blo, bhi = val64 ctx b in
    let rop = match op with Instr.And -> Isa.AND | Or -> OR | _ -> XOR in
    emit_op ctx rop dlo alo blo;
    emit_op ctx rop dhi ahi bhi
  | Mulhu -> raise (Unsupported "i64 mulhu (use i32 or widen explicitly)")
  | Div | Rem | Udiv | Urem -> runtime_call ()
  | Shl | Lshr | Ashr -> begin
    match imm_of b with
    | Some c ->
      let c = c land 63 in
      let alo, ahi = val64 ctx a in
      if c = 0 then begin
        emit_mv ctx dlo alo;
        emit_mv ctx dhi ahi
      end
      else if c < 32 then begin
        match op with
        | Instr.Shl ->
          let t = fresh ctx in
          emit_opi ctx Isa.SRLI t alo (32 - c);
          emit_opi ctx Isa.SLLI dhi ahi c;
          emit_op ctx Isa.OR dhi dhi t;
          emit_opi ctx Isa.SLLI dlo alo c
        | Lshr | Ashr ->
          let t = fresh ctx in
          emit_opi ctx Isa.SLLI t ahi (32 - c);
          emit_opi ctx Isa.SRLI dlo alo c;
          emit_op ctx Isa.OR dlo dlo t;
          emit_opi ctx (if op = Instr.Lshr then Isa.SRLI else Isa.SRAI) dhi ahi c
        | _ -> assert false
      end
      else begin
        match op with
        | Instr.Shl ->
          emit_opi ctx Isa.SLLI dhi alo (c - 32);
          emit_li ctx dlo 0l
        | Lshr ->
          emit_opi ctx Isa.SRLI dlo ahi (c - 32);
          emit_li ctx dhi 0l
        | Ashr ->
          emit_opi ctx Isa.SRAI dlo ahi (c - 32);
          emit_opi ctx Isa.SRAI dhi ahi 31
        | _ -> assert false
      end
    | None -> runtime_call ()
  end

let cmp64 ctx (op : Instr.cmpop) dst a b =
  let alo, ahi = val64 ctx a in
  let blo, bhi = val64 ctx b in
  match op with
  | Instr.Eq | Ne ->
    let t1 = fresh ctx and t2 = fresh ctx in
    emit_op ctx Isa.XOR t1 alo blo;
    emit_op ctx Isa.XOR t2 ahi bhi;
    emit_op ctx Isa.OR t1 t1 t2;
    if op = Instr.Eq then emit_opi ctx Isa.SLTIU dst t1 1
    else emit_op ctx Isa.SLTU dst Isa.zero t1
  | _ ->
    (* lexicographic: high word signed/unsigned per op, low word unsigned *)
    let swap, strict, hi_signed =
      match op with
      | Instr.Slt -> (false, true, true)
      | Ult -> (false, true, false)
      | Sgt -> (true, true, true)
      | Ugt -> (true, true, false)
      | Sle -> (true, false, true)    (* a <= b  ==  not (b < a) *)
      | Ule -> (true, false, false)
      | Sge -> (false, false, true)   (* a >= b  ==  not (a < b) *)
      | Uge -> (false, false, false)
      | Eq | Ne -> assert false
    in
    let alo, ahi, blo, bhi =
      if swap then (blo, bhi, alo, ahi) else (alo, ahi, blo, bhi)
    in
    let lt_hi = fresh ctx and eq_hi = fresh ctx and lt_lo = fresh ctx in
    emit_op ctx (if hi_signed then Isa.SLT else Isa.SLTU) lt_hi ahi bhi;
    emit_op ctx Isa.XOR eq_hi ahi bhi;
    emit_opi ctx Isa.SLTIU eq_hi eq_hi 1;
    emit_op ctx Isa.SLTU lt_lo alo blo;
    (* result = lt_hi | (eq_hi & lt_lo) *)
    emit_op ctx Isa.AND eq_hi eq_hi lt_lo;
    emit_op ctx Isa.OR dst lt_hi eq_hi;
    if not strict then emit_opi ctx Isa.XORI dst dst 1

(* Branchless select via mask = 0 - (cond != 0); the normalization keeps
   the lowering correct for any condition value, matching the IR's
   "nonzero is true" semantics. *)
let select32 ctx dst cond t f =
  let mask = fresh ctx and nmask = fresh ctx and tv = fresh ctx in
  let norm = fresh ctx in
  emit_op ctx Isa.SLTU norm Isa.zero cond;
  let cond = norm in
  emit_op ctx Isa.SUB mask Isa.zero cond;
  emit_opi ctx Isa.XORI nmask mask (-1);
  emit_op ctx Isa.AND tv t mask;
  emit_op ctx Isa.AND nmask f nmask;
  emit_op ctx Isa.OR dst tv nmask

(* ------------------------------------------------------------------ *)
(* Instructions                                                        *)
(* ------------------------------------------------------------------ *)

let move_args ctx args param_tys =
  (* scalars and i64 pairs packed into a0.. in order; assert <= 8 words *)
  let moves = ref [] in
  let word = ref 0 in
  List.iter2
    (fun v ty ->
      match (ty : Ty.t) with
      | Ty.I32 | Ptr ->
        let r = val32 ctx v in
        moves := (10 + !word, r) :: !moves;
        incr word
      | I64 ->
        let lo, hi = val64 ctx v in
        moves := (10 + !word + 1, hi) :: (10 + !word, lo) :: !moves;
        word := !word + 2)
    args param_tys;
  if !word > 8 then raise (Unsupported "more than 8 argument words");
  (* all sources are vregs; emit moves after evaluation so argument
     evaluation cannot clobber already-placed a-registers *)
  List.iter (fun (dst, src) -> emit_mv ctx dst src) (List.rev !moves)

let sel_instr ctx (i : Instr.t) =
  match i with
  | Instr.Bin { dst; ty; op; a; b } -> begin
    match ty with
    | Ty.I32 | Ptr -> bin32 ctx op (lo_vreg ctx dst) a b
    | I64 -> bin64 ctx op (lo_vreg ctx dst, hi_vreg ctx dst) a b
  end
  | Cmp { dst; ty; op; a; b } -> begin
    match ty with
    | Ty.I32 | Ptr ->
      let ra = val32 ctx a in
      let rb = val32 ctx b in
      cmp32_into ctx op (lo_vreg ctx dst) ra rb
    | I64 -> cmp64 ctx op (lo_vreg ctx dst) a b
  end
  | Select { dst; ty; cond; if_true; if_false } -> begin
    let c = val32 ctx cond in
    match ty with
    | Ty.I32 | Ptr ->
      let t = val32 ctx if_true and f = val32 ctx if_false in
      select32 ctx (lo_vreg ctx dst) c t f
    | I64 ->
      let tlo, thi = val64 ctx if_true in
      let flo, fhi = val64 ctx if_false in
      select32 ctx (lo_vreg ctx dst) c tlo flo;
      select32 ctx (hi_vreg ctx dst) c thi fhi
  end
  | Mov { dst; ty; src } -> begin
    match ty with
    | Ty.I32 | Ptr ->
      let s = val32 ctx src in
      emit_mv ctx (lo_vreg ctx dst) s
    | I64 ->
      let lo, hi = val64 ctx src in
      emit_mv ctx (lo_vreg ctx dst) lo;
      emit_mv ctx (hi_vreg ctx dst) hi
  end
  | Cast { dst; op; src } -> begin
    match op with
    | Instr.Zext ->
      let s = val32 ctx src in
      emit_mv ctx (lo_vreg ctx dst) s;
      emit_li ctx (hi_vreg ctx dst) 0l
    | Sext ->
      let s = val32 ctx src in
      emit_mv ctx (lo_vreg ctx dst) s;
      emit_opi ctx Isa.SRAI (hi_vreg ctx dst) s 31
    | Trunc ->
      let lo, _hi = val64 ctx src in
      emit_mv ctx (lo_vreg ctx dst) lo
  end
  | Load { dst; ty; addr } -> begin
    let base = val32 ctx addr in
    match ty with
    | Ty.I32 | Ptr -> emit ctx (Asm.Ins (Isa.Load (Isa.LW, lo_vreg ctx dst, base, 0)))
    | I64 ->
      emit ctx (Asm.Ins (Isa.Load (Isa.LW, lo_vreg ctx dst, base, 0)));
      emit ctx (Asm.Ins (Isa.Load (Isa.LW, hi_vreg ctx dst, base, 4)))
  end
  | Store { ty; addr; src } -> begin
    let base = val32 ctx addr in
    match ty with
    | Ty.I32 | Ptr ->
      let s = val32 ctx src in
      emit ctx (Asm.Ins (Isa.Store (Isa.SW, s, base, 0)))
    | I64 ->
      let lo, hi = val64 ctx src in
      emit ctx (Asm.Ins (Isa.Store (Isa.SW, lo, base, 0)));
      emit ctx (Asm.Ins (Isa.Store (Isa.SW, hi, base, 4)))
  end
  | Addr { dst; base; index; scale; offset } -> begin
    let d = lo_vreg ctx dst in
    let rb = val32 ctx base in
    let with_index =
      match (imm_of index, scale) with
      | Some 0, _ | _, 0 -> rb
      | Some i, s ->
        let t = fresh ctx in
        let disp = i * s in
        if Asm.fits_imm12 disp then emit_opi ctx Isa.ADDI t rb disp
        else begin
          let c = fresh ctx in
          emit_li ctx c (Int32.of_int disp);
          emit_op ctx Isa.ADD t rb c
        end;
        t
      | None, s ->
        let ri = val32 ctx index in
        let scaled =
          if s = 1 then ri
          else if s land (s - 1) = 0 then begin
            let t = fresh ctx in
            let rec log2 n = if n = 1 then 0 else 1 + log2 (n / 2) in
            emit_opi ctx Isa.SLLI t ri (log2 s);
            t
          end
          else begin
            let c = fresh ctx and t = fresh ctx in
            emit_li ctx c (Int32.of_int s);
            emit_op ctx Isa.MUL t ri c;
            t
          end
        in
        let t = fresh ctx in
        emit_op ctx Isa.ADD t rb scaled;
        t
    in
    if offset = 0 then emit_mv ctx d with_index
    else if Asm.fits_imm12 offset then emit_opi ctx Isa.ADDI d with_index offset
    else begin
      let c = fresh ctx in
      emit_li ctx c (Int32.of_int offset);
      emit_op ctx Isa.ADD d with_index c
    end
  end
  | Alloca { dst; _ } ->
    let off = Hashtbl.find ctx.alloca_off dst in
    emit_opi ctx Isa.ADDI (lo_vreg ctx dst) Isa.sp off
  | Call { dst; callee; args } -> begin
    let callee_f = Modul.find_func_exn ctx.m callee in
    move_args ctx args (List.map snd callee_f.Func.params);
    emit ctx (Asm.CallSym callee);
    ctx.has_calls <- true;
    match (dst, callee_f.ret) with
    | Some d, Some Ty.I64 ->
      emit_mv ctx (lo_vreg ctx d) 10;
      emit_mv ctx (hi_vreg ctx d) 11
    | Some d, Some (Ty.I32 | Ptr) -> emit_mv ctx (lo_vreg ctx d) 10
    | Some _, None -> raise (Unsupported "binding void call")
    | None, _ -> ()
  end
  | Precompile { dst; name; args } -> begin
    let arg_regs = List.map (val32 ctx) args in
    List.iteri (fun i r -> emit_mv ctx (10 + i) r) arg_regs;
    emit_li ctx 17 (Int32.of_int (Emulator.precompile_syscall_id name));
    emit ctx (Asm.Ins Isa.Ecall);
    Option.iter (fun d -> emit_mv ctx (lo_vreg ctx d) 10) dst
  end

let ty_of_value ctx = function
  | Value.Reg r -> ty_of_reg ctx r
  | Value.Imm _ -> Ty.I32
  | Value.Glob _ -> Ty.Ptr

(* compare-and-branch fusion: when the condition is an [Instr.Cmp] defined
   as the last instruction of the same block with its only use in the
   terminator, branch directly on the comparison. *)
let sel_term ctx (b : Block.t) ~(use_counts : (Value.reg, int) Hashtbl.t)
    ~exit_label =
  let lbl l = l in
  match b.Block.term with
  | Instr.Ret None -> emit ctx (Asm.J exit_label)
  | Ret (Some v) -> begin
    (* the move is dictated by the declared return type, not by the
       operand's shape (an immediate can be returned from an i64 function) *)
    (match Option.value ~default:(ty_of_value ctx v) ctx.f.Func.ret with
    | Ty.I64 ->
      let lo, hi = val64 ctx v in
      emit_mv ctx 10 lo;
      emit_mv ctx 11 hi
    | I32 | Ptr ->
      let r = val32 ctx v in
      emit_mv ctx 10 r);
    emit ctx (Asm.J exit_label)
  end
  | Br l -> emit ctx (Asm.J (lbl l))
  | Cbr { cond; if_true; if_false } -> begin
    let fused =
      match (cond, List.rev b.Block.instrs) with
      | Value.Reg c, Instr.Cmp { dst; ty = Ty.I32 | Ptr; op; a; b = bb } :: _
        when dst = c && Hashtbl.find_opt use_counts c = Some 1 -> Some (op, a, bb)
      | _ -> None
    in
    match fused with
    | Some (op, a, bb) ->
      let ra = val32 ctx a in
      let rb = val32 ctx bb in
      let bc, ra, rb =
        match op with
        | Instr.Eq -> (Isa.BEQ, ra, rb)
        | Ne -> (Isa.BNE, ra, rb)
        | Slt -> (Isa.BLT, ra, rb)
        | Ult -> (Isa.BLTU, ra, rb)
        | Sge -> (Isa.BGE, ra, rb)
        | Uge -> (Isa.BGEU, ra, rb)
        | Sgt -> (Isa.BLT, rb, ra)
        | Ugt -> (Isa.BLTU, rb, ra)
        | Sle -> (Isa.BGE, rb, ra)
        | Ule -> (Isa.BGEU, rb, ra)
      in
      emit ctx (Asm.Bc (bc, ra, rb, lbl if_true));
      emit ctx (Asm.J (lbl if_false))
    | None ->
      let c = val32 ctx cond in
      emit ctx (Asm.Bc (Isa.BNE, c, Isa.zero, lbl if_true));
      emit ctx (Asm.J (lbl if_false))
  end

(* The fused Cmp is still emitted by sel_instr (its result may be unused
   after fusion but DCE at the machine level is out of scope); to avoid
   the duplicate we skip the trailing Cmp during block emission when it
   will be fused.  [instrs_to_emit] performs that check. *)
let instrs_to_emit (b : Block.t) ~(use_counts : (Value.reg, int) Hashtbl.t) =
  match (b.Block.term, List.rev b.Block.instrs) with
  | ( Instr.Cbr { cond = Value.Reg c; _ },
      Instr.Cmp { dst; ty = Ty.I32 | Ptr; _ } :: rest )
    when dst = c && Hashtbl.find_opt use_counts c = Some 1 ->
    List.rev rest
  | _ -> b.Block.instrs

type output = {
  items : Asm.item list;
  next_vreg : int;
  alloca_bytes : int;
  has_calls : bool;
}

(** Select one function.  Output still contains virtual registers. *)
let select (m : Modul.t) (f : Func.t) : output =
  (* assign alloca slots (bottom of the frame, sp+0 upward) *)
  let alloca_off = Hashtbl.create 4 in
  let alloca_bytes = ref 0 in
  Func.iter_instrs f (fun _ i ->
      match i with
      | Instr.Alloca { dst; size } ->
        if not (Hashtbl.mem alloca_off dst) then begin
          Hashtbl.replace alloca_off dst !alloca_bytes;
          alloca_bytes := !alloca_bytes + Zkopt_ir.Layout.align_up size 8
        end
      | _ -> ());
  let ctx =
    {
      f;
      m;
      reg_types = Modul.reg_types m f;
      next_vreg = vreg_base;
      lo_of = Hashtbl.create 64;
      hi_of = Hashtbl.create 64;
      alloca_off;
      alloca_bytes = !alloca_bytes;
      items = [];
      has_calls = false;
    }
  in
  let use_counts = Zkopt_analysis.Defs.use_counts f in
  let exit_label = "__exit" in
  (* parameter intake from a0.., attributed to the entry block *)
  (match f.Func.blocks with
  | b :: _ -> emit ctx (Asm.Loc b.Block.label)
  | [] -> ());
  let word = ref 0 in
  List.iter
    (fun (r, ty) ->
      match (ty : Ty.t) with
      | Ty.I32 | Ptr ->
        emit_mv ctx (lo_vreg ctx r) (10 + !word);
        incr word
      | I64 ->
        emit_mv ctx (lo_vreg ctx r) (10 + !word);
        emit_mv ctx (hi_vreg ctx r) (10 + !word + 1);
        word := !word + 2)
    f.Func.params;
  if !word > 8 then raise (Unsupported "more than 8 parameter words");
  (* blocks in layout order; entry first.  Block labels are function-local. *)
  List.iter
    (fun (b : Block.t) ->
      emit ctx (Asm.Label b.Block.label);
      emit ctx (Asm.Loc b.Block.label);
      List.iter (sel_instr ctx) (instrs_to_emit b ~use_counts);
      sel_term ctx b ~use_counts ~exit_label)
    f.Func.blocks;
  emit ctx (Asm.Label exit_label);
  (* fallthrough elision: an unconditional jump to the label that
     immediately follows it is dropped, so block layout affects the
     dynamic instruction count as it does in real backends *)
  let rec elide = function
    | Asm.J l :: (Asm.Label l' :: _ as rest) when String.equal l l' -> elide rest
    | it :: rest -> it :: elide rest
    | [] -> []
  in
  {
    items = elide (List.rev ctx.items);
    next_vreg = ctx.next_vreg;
    alloca_bytes = ctx.alloca_bytes;
    has_calls = ctx.has_calls;
  }
