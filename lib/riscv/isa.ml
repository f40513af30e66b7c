(** RV32IM instruction set: types, registers, and binary encode/decode.

    The emulator executes the decoded form; the encoder exists so that the
    toolchain produces genuine RV32IM words (and the round-trip is a good
    test of both directions). *)

type reg = int (* x0..x31 *)

(* ABI names used in assembly listings *)
let reg_name r =
  [| "zero"; "ra"; "sp"; "gp"; "tp"; "t0"; "t1"; "t2"; "s0"; "s1"; "a0";
     "a1"; "a2"; "a3"; "a4"; "a5"; "a6"; "a7"; "s2"; "s3"; "s4"; "s5"; "s6";
     "s7"; "s8"; "s9"; "s10"; "s11"; "t3"; "t4"; "t5"; "t6" |].(r)

let zero = 0
let ra = 1
let sp = 2
let a0 = 10
let a7 = 17
let t5 = 30
let t6 = 31

type rop =
  | ADD | SUB | SLL | SLT | SLTU | XOR | SRL | SRA | OR | AND
  | MUL | MULH | MULHSU | MULHU | DIV | DIVU | REM | REMU

type iop = ADDI | SLTI | SLTIU | XORI | ORI | ANDI | SLLI | SRLI | SRAI

type lwidth = LB | LH | LW | LBU | LHU
type swidth = SB | SH | SW
type bcond = BEQ | BNE | BLT | BGE | BLTU | BGEU

type t =
  | Lui of reg * int32            (* rd, imm[31:12] already shifted *)
  | Auipc of reg * int32
  | Jal of reg * int              (* rd, byte offset from this pc *)
  | Jalr of reg * reg * int       (* rd, rs1, imm *)
  | Branch of bcond * reg * reg * int  (* rs1, rs2, byte offset *)
  | Load of lwidth * reg * reg * int   (* rd, base, imm *)
  | Store of swidth * reg * reg * int  (* rs2 (src), base, imm *)
  | Op of rop * reg * reg * reg        (* rd, rs1, rs2 *)
  | Opi of iop * reg * reg * int       (* rd, rs1, imm *)
  | Ecall

(* Dense sub-opcode indexes.  Pre-decoded executors (lib/zkvm's machine)
   number the whole instruction space contiguously from these so dispatch
   compiles to a jump table over small ints instead of a variant match
   over boxed operands. *)
let rop_index = function
  | ADD -> 0 | SUB -> 1 | SLL -> 2 | SLT -> 3 | SLTU -> 4 | XOR -> 5
  | SRL -> 6 | SRA -> 7 | OR -> 8 | AND -> 9 | MUL -> 10 | MULH -> 11
  | MULHSU -> 12 | MULHU -> 13 | DIV -> 14 | DIVU -> 15 | REM -> 16
  | REMU -> 17

let iop_index = function
  | ADDI -> 0 | SLTI -> 1 | SLTIU -> 2 | XORI -> 3 | ORI -> 4 | ANDI -> 5
  | SLLI -> 6 | SRLI -> 7 | SRAI -> 8

let lwidth_index = function LB -> 0 | LH -> 1 | LW -> 2 | LBU -> 3 | LHU -> 4
let swidth_index = function SB -> 0 | SH -> 1 | SW -> 2

let bcond_index = function
  | BEQ -> 0 | BNE -> 1 | BLT -> 2 | BGE -> 3 | BLTU -> 4 | BGEU -> 5

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let ( <<< ) = Int32.shift_left
let ( ||| ) = Int32.logor
let i32 = Int32.of_int

let mask_imm12 imm = i32 (imm land 0xFFF)

let rop_funct = function
  | ADD -> (0, 0x00) | SUB -> (0, 0x20) | SLL -> (1, 0x00) | SLT -> (2, 0x00)
  | SLTU -> (3, 0x00) | XOR -> (4, 0x00) | SRL -> (5, 0x00) | SRA -> (5, 0x20)
  | OR -> (6, 0x00) | AND -> (7, 0x00)
  | MUL -> (0, 0x01) | MULH -> (1, 0x01) | MULHSU -> (2, 0x01)
  | MULHU -> (3, 0x01) | DIV -> (4, 0x01) | DIVU -> (5, 0x01)
  | REM -> (6, 0x01) | REMU -> (7, 0x01)

let iop_funct = function
  | ADDI -> 0 | SLTI -> 2 | SLTIU -> 3 | XORI -> 4 | ORI -> 6 | ANDI -> 7
  | SLLI -> 1 | SRLI -> 5 | SRAI -> 5

let lwidth_funct = function LB -> 0 | LH -> 1 | LW -> 2 | LBU -> 4 | LHU -> 5
let swidth_funct = function SB -> 0 | SH -> 1 | SW -> 2
let bcond_funct = function
  | BEQ -> 0 | BNE -> 1 | BLT -> 4 | BGE -> 5 | BLTU -> 6 | BGEU -> 7

let encode (ins : t) : int32 =
  match ins with
  | Lui (rd, imm) -> Int32.logand imm 0xFFFFF000l ||| (i32 rd <<< 7) ||| 0x37l
  | Auipc (rd, imm) -> Int32.logand imm 0xFFFFF000l ||| (i32 rd <<< 7) ||| 0x17l
  | Jal (rd, off) ->
    let imm20 = (off lsr 20) land 1 in
    let imm10_1 = (off lsr 1) land 0x3FF in
    let imm11 = (off lsr 11) land 1 in
    let imm19_12 = (off lsr 12) land 0xFF in
    (i32 imm20 <<< 31) ||| (i32 imm10_1 <<< 21) ||| (i32 imm11 <<< 20)
    ||| (i32 imm19_12 <<< 12) ||| (i32 rd <<< 7) ||| 0x6Fl
  | Jalr (rd, rs1, imm) ->
    (mask_imm12 imm <<< 20) ||| (i32 rs1 <<< 15) ||| (i32 rd <<< 7) ||| 0x67l
  | Branch (c, rs1, rs2, off) ->
    let imm12 = (off lsr 12) land 1 in
    let imm10_5 = (off lsr 5) land 0x3F in
    let imm4_1 = (off lsr 1) land 0xF in
    let imm11 = (off lsr 11) land 1 in
    (i32 imm12 <<< 31) ||| (i32 imm10_5 <<< 25) ||| (i32 rs2 <<< 20)
    ||| (i32 rs1 <<< 15) ||| (i32 (bcond_funct c) <<< 12)
    ||| (i32 imm4_1 <<< 8) ||| (i32 imm11 <<< 7) ||| 0x63l
  | Load (w, rd, rs1, imm) ->
    (mask_imm12 imm <<< 20) ||| (i32 rs1 <<< 15)
    ||| (i32 (lwidth_funct w) <<< 12) ||| (i32 rd <<< 7) ||| 0x03l
  | Store (w, rs2, rs1, imm) ->
    let imm11_5 = (imm lsr 5) land 0x7F in
    let imm4_0 = imm land 0x1F in
    (i32 imm11_5 <<< 25) ||| (i32 rs2 <<< 20) ||| (i32 rs1 <<< 15)
    ||| (i32 (swidth_funct w) <<< 12) ||| (i32 imm4_0 <<< 7) ||| 0x23l
  | Op (op, rd, rs1, rs2) ->
    let funct3, funct7 = rop_funct op in
    (i32 funct7 <<< 25) ||| (i32 rs2 <<< 20) ||| (i32 rs1 <<< 15)
    ||| (i32 funct3 <<< 12) ||| (i32 rd <<< 7) ||| 0x33l
  | Opi (op, rd, rs1, imm) ->
    let funct3 = iop_funct op in
    let imm =
      match op with
      | SLLI | SRLI -> imm land 0x1F
      | SRAI -> (imm land 0x1F) lor 0x400
      | _ -> imm
    in
    (mask_imm12 imm <<< 20) ||| (i32 rs1 <<< 15) ||| (i32 funct3 <<< 12)
    ||| (i32 rd <<< 7) ||| 0x13l
  | Ecall -> 0x73l

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

exception Decode_error of int32

let bits w hi lo =
  Int32.to_int (Int32.logand (Int32.shift_right_logical w lo)
                  (Int32.of_int ((1 lsl (hi - lo + 1)) - 1)))

let sext v width = (v lxor (1 lsl (width - 1))) - (1 lsl (width - 1))

let decode (w : int32) : t =
  let opcode = bits w 6 0 in
  let rd = bits w 11 7 in
  let rs1 = bits w 19 15 in
  let rs2 = bits w 24 20 in
  let funct3 = bits w 14 12 in
  let funct7 = bits w 31 25 in
  match opcode with
  | 0x37 -> Lui (rd, Int32.logand w 0xFFFFF000l)
  | 0x17 -> Auipc (rd, Int32.logand w 0xFFFFF000l)
  | 0x6F ->
    let off =
      (bits w 31 31 lsl 20) lor (bits w 19 12 lsl 12) lor (bits w 20 20 lsl 11)
      lor (bits w 30 21 lsl 1)
    in
    Jal (rd, sext off 21)
  | 0x67 -> Jalr (rd, rs1, sext (bits w 31 20) 12)
  | 0x63 ->
    let off =
      (bits w 31 31 lsl 12) lor (bits w 7 7 lsl 11) lor (bits w 30 25 lsl 5)
      lor (bits w 11 8 lsl 1)
    in
    let c =
      match funct3 with
      | 0 -> BEQ | 1 -> BNE | 4 -> BLT | 5 -> BGE | 6 -> BLTU | 7 -> BGEU
      | _ -> raise (Decode_error w)
    in
    Branch (c, rs1, rs2, sext off 13)
  | 0x03 ->
    let wd =
      match funct3 with
      | 0 -> LB | 1 -> LH | 2 -> LW | 4 -> LBU | 5 -> LHU
      | _ -> raise (Decode_error w)
    in
    Load (wd, rd, rs1, sext (bits w 31 20) 12)
  | 0x23 ->
    let wd = match funct3 with 0 -> SB | 1 -> SH | 2 -> SW | _ -> raise (Decode_error w) in
    Store (wd, rs2, rs1, sext ((bits w 31 25 lsl 5) lor bits w 11 7) 12)
  | 0x33 ->
    let op =
      match (funct3, funct7) with
      | 0, 0x00 -> ADD | 0, 0x20 -> SUB | 1, 0x00 -> SLL | 2, 0x00 -> SLT
      | 3, 0x00 -> SLTU | 4, 0x00 -> XOR | 5, 0x00 -> SRL | 5, 0x20 -> SRA
      | 6, 0x00 -> OR | 7, 0x00 -> AND
      | 0, 0x01 -> MUL | 1, 0x01 -> MULH | 2, 0x01 -> MULHSU | 3, 0x01 -> MULHU
      | 4, 0x01 -> DIV | 5, 0x01 -> DIVU | 6, 0x01 -> REM | 7, 0x01 -> REMU
      | _ -> raise (Decode_error w)
    in
    Op (op, rd, rs1, rs2)
  | 0x13 ->
    let imm = sext (bits w 31 20) 12 in
    let op =
      match funct3 with
      | 0 -> ADDI | 2 -> SLTI | 3 -> SLTIU | 4 -> XORI | 6 -> ORI | 7 -> ANDI
      | 1 -> SLLI
      | 5 -> if funct7 land 0x20 <> 0 then SRAI else SRLI
      | _ -> raise (Decode_error w)
    in
    let imm = match op with SLLI | SRLI | SRAI -> rs2 | _ -> imm in
    Opi (op, rd, rs1, imm)
  | 0x73 -> Ecall
  | _ -> raise (Decode_error w)

(* ------------------------------------------------------------------ *)
(* Pretty printing (assembly listings)                                 *)
(* ------------------------------------------------------------------ *)

let rop_name = function
  | ADD -> "add" | SUB -> "sub" | SLL -> "sll" | SLT -> "slt" | SLTU -> "sltu"
  | XOR -> "xor" | SRL -> "srl" | SRA -> "sra" | OR -> "or" | AND -> "and"
  | MUL -> "mul" | MULH -> "mulh" | MULHSU -> "mulhsu" | MULHU -> "mulhu"
  | DIV -> "div" | DIVU -> "divu" | REM -> "rem" | REMU -> "remu"

let iop_name = function
  | ADDI -> "addi" | SLTI -> "slti" | SLTIU -> "sltiu" | XORI -> "xori"
  | ORI -> "ori" | ANDI -> "andi" | SLLI -> "slli" | SRLI -> "srli"
  | SRAI -> "srai"

let to_string (ins : t) =
  match ins with
  | Lui (rd, imm) -> Printf.sprintf "lui %s, 0x%lx" (reg_name rd) (Int32.shift_right_logical imm 12)
  | Auipc (rd, imm) -> Printf.sprintf "auipc %s, 0x%lx" (reg_name rd) (Int32.shift_right_logical imm 12)
  | Jal (rd, off) -> Printf.sprintf "jal %s, %d" (reg_name rd) off
  | Jalr (rd, rs1, imm) -> Printf.sprintf "jalr %s, %d(%s)" (reg_name rd) imm (reg_name rs1)
  | Branch (c, rs1, rs2, off) ->
    let n = match c with BEQ -> "beq" | BNE -> "bne" | BLT -> "blt"
                       | BGE -> "bge" | BLTU -> "bltu" | BGEU -> "bgeu" in
    Printf.sprintf "%s %s, %s, %d" n (reg_name rs1) (reg_name rs2) off
  | Load (w, rd, rs1, imm) ->
    let n = match w with LB -> "lb" | LH -> "lh" | LW -> "lw" | LBU -> "lbu" | LHU -> "lhu" in
    Printf.sprintf "%s %s, %d(%s)" n (reg_name rd) imm (reg_name rs1)
  | Store (w, rs2, rs1, imm) ->
    let n = match w with SB -> "sb" | SH -> "sh" | SW -> "sw" in
    Printf.sprintf "%s %s, %d(%s)" n (reg_name rs2) imm (reg_name rs1)
  | Op (op, rd, rs1, rs2) ->
    Printf.sprintf "%s %s, %s, %s" (rop_name op) (reg_name rd) (reg_name rs1) (reg_name rs2)
  | Opi (op, rd, rs1, imm) ->
    Printf.sprintf "%s %s, %s, %d" (iop_name op) (reg_name rd) (reg_name rs1) imm
  | Ecall -> "ecall"
