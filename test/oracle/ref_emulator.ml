(** The boxed RV32IM reference emulator: the semantics oracle the
    decoded machine ({!Zkopt_zkvm.Machine}) is differentially tested
    against.

    Executes an assembled {!Zkopt_riscv.Asm.program} against sparse
    guest memory, one boxed [Isa.t] variant and [int32] registers per
    step.  Cost models observe execution through [hooks]; the emulator
    itself is purely functional semantics.  It shares the guest ABI
    (syscall numbers, precompile table, [Trap] and [Out_of_fuel]) with
    the library through {!Zkopt_riscv.Emulator}, so trap identity
    compares directly against the machine's. *)

open Zkopt_ir
open Zkopt_riscv
open Emulator

type hooks = {
  mutable on_instr : pc:int32 -> Isa.t -> unit;
  mutable on_mem : write:bool -> int32 -> int -> unit;  (* addr, bytes *)
  mutable on_branch : pc:int32 -> taken:bool -> int32 -> unit;
  mutable on_precompile : string -> unit;
}

let no_hooks () =
  {
    on_instr = (fun ~pc:_ _ -> ());
    on_mem = (fun ~write:_ _ _ -> ());
    on_branch = (fun ~pc:_ ~taken:_ _ -> ());
    on_precompile = (fun _ -> ());
  }

type t = {
  prog : Asm.program;
  mem : Memory.t;
  regs : int32 array;
  mutable pc : int32;
  mutable halted : bool;
  mutable exit_value : int32;
  mutable retired : int;
  hooks : hooks;
}

(** [(name, arity)] of a precompile syscall id; raises [Trap] on
    unknown ids. *)
let precompile_of_syscall id =
  let i = id - syscall_precompile_base in
  if i >= 0 && i < Array.length precompile_signatures then
    precompile_signatures.(i)
  else raise (Trap (Printf.sprintf "unknown syscall %d" id))

(** Install the code image and globals and position the machine at
    [main]. *)
let create ?(hooks = no_hooks ()) (prog : Asm.program) (m : Modul.t) : t =
  let mem = Memory.create () in
  (* Install the code image so code pages participate in paging costs. *)
  Array.iteri
    (fun i ins ->
      Memory.store32 mem
        (Int32.add prog.Asm.base (Int32.of_int (4 * i)))
        (Isa.encode ins))
    prog.Asm.code;
  List.iter
    (fun (g : Modul.global) ->
      match Hashtbl.find_opt prog.Asm.symbols g.gname with
      | Some addr -> Memory.init_global mem addr g.init
      | None -> ())
    m.Modul.globals;
  let regs = Array.make 32 0l in
  regs.(Isa.sp) <- Layout.stack_top;
  let entry =
    match Hashtbl.find_opt prog.Asm.symbols "main" with
    | Some a -> a
    | None -> raise (Trap "no main symbol")
  in
  (* ra = 0 sentinel: returning from main jumps to 0, which we treat as
     halt-with-a0 for robustness; the codegen emits an explicit ecall. *)
  { prog; mem; regs; pc = entry; halted = false; exit_value = 0l;
    retired = 0; hooks }

let reg_get t r = if r = 0 then 0l else t.regs.(r)
let reg_set t r v = if r <> 0 then t.regs.(r) <- v

let fetch t =
  let idx = Int32.to_int (Int32.sub t.pc t.prog.Asm.base) / 4 in
  if idx < 0 || idx >= Array.length t.prog.Asm.code then
    raise (Trap (Printf.sprintf "pc out of range: 0x%08lx" t.pc))
  else t.prog.Asm.code.(idx)

let extern_mem t =
  {
    Extern.load32 =
      (fun a ->
        t.hooks.on_mem ~write:false a 4;
        Memory.load32 t.mem a);
    store32 =
      (fun a v ->
        t.hooks.on_mem ~write:true a 4;
        Memory.store32 t.mem a v);
  }

let do_syscall t =
  let id = Int32.to_int (reg_get t Isa.a7) in
  if id = syscall_halt then begin
    t.halted <- true;
    t.exit_value <- reg_get t Isa.a0
  end
  else begin
    let name, arity = precompile_of_syscall id in
    t.hooks.on_precompile name;
    let args =
      Array.init arity (fun i ->
          Eval.norm32 (Int64.of_int32 (reg_get t (Isa.a0 + i))))
    in
    match Extern.run name (extern_mem t) args with
    | Some v -> reg_set t Isa.a0 (Int64.to_int32 v)
    | None -> ()
  end

let s64 (v : int32) = Int64.of_int32 v
let u64 (v : int32) = Int64.logand (Int64.of_int32 v) 0xFFFF_FFFFL

(** Reference ALU/branch semantics. *)
let alu_op (op : Isa.rop) (a : int32) (b : int32) : int32 =
  match op with
  | Isa.ADD -> Int32.add a b
  | SUB -> Int32.sub a b
  | SLL -> Int32.shift_left a (Int32.to_int b land 31)
  | SLT -> if Int32.compare a b < 0 then 1l else 0l
  | SLTU -> if Int32.unsigned_compare a b < 0 then 1l else 0l
  | XOR -> Int32.logxor a b
  | SRL -> Int32.shift_right_logical a (Int32.to_int b land 31)
  | SRA -> Int32.shift_right a (Int32.to_int b land 31)
  | OR -> Int32.logor a b
  | AND -> Int32.logand a b
  | MUL -> Int32.mul a b
  | MULH ->
    Int64.to_int32 (Int64.shift_right (Int64.mul (s64 a) (s64 b)) 32)
  | MULHSU ->
    Int64.to_int32 (Int64.shift_right (Int64.mul (s64 a) (u64 b)) 32)
  | MULHU ->
    Int64.to_int32 (Int64.shift_right_logical (Int64.mul (u64 a) (u64 b)) 32)
  | DIV -> Int64.to_int32 (Eval.sdiv32 (u64 a) (u64 b))
  | DIVU -> Int64.to_int32 (Eval.udiv32 (u64 a) (u64 b))
  | REM -> Int64.to_int32 (Eval.srem32 (u64 a) (u64 b))
  | REMU -> Int64.to_int32 (Eval.urem32 (u64 a) (u64 b))

let alu_opi (op : Isa.iop) (a : int32) (imm : int) : int32 =
  let b = Int32.of_int imm in
  match op with
  | Isa.ADDI -> Int32.add a b
  | SLTI -> if Int32.compare a b < 0 then 1l else 0l
  | SLTIU -> if Int32.unsigned_compare a b < 0 then 1l else 0l
  | XORI -> Int32.logxor a b
  | ORI -> Int32.logor a b
  | ANDI -> Int32.logand a b
  | SLLI -> Int32.shift_left a (imm land 31)
  | SRLI -> Int32.shift_right_logical a (imm land 31)
  | SRAI -> Int32.shift_right a (imm land 31)

let branch_taken (c : Isa.bcond) a b =
  match c with
  | Isa.BEQ -> Int32.equal a b
  | BNE -> not (Int32.equal a b)
  | BLT -> Int32.compare a b < 0
  | BGE -> Int32.compare a b >= 0
  | BLTU -> Int32.unsigned_compare a b < 0
  | BGEU -> Int32.unsigned_compare a b >= 0

(** Execute one instruction (fires [hooks.on_instr] first). *)
let step t =
  let pc = t.pc in
  let ins = fetch t in
  t.hooks.on_instr ~pc ins;
  t.retired <- t.retired + 1;
  let next = Int32.add pc 4l in
  (match ins with
  | Isa.Lui (rd, imm) ->
    reg_set t rd imm;
    t.pc <- next
  | Auipc (rd, imm) ->
    reg_set t rd (Int32.add pc imm);
    t.pc <- next
  | Jal (rd, off) ->
    let target = Int32.add pc (Int32.of_int off) in
    reg_set t rd next;
    t.hooks.on_branch ~pc ~taken:true target;
    t.pc <- target
  | Jalr (rd, rs1, imm) ->
    let target =
      Int32.logand (Int32.add (reg_get t rs1) (Int32.of_int imm)) 0xFFFF_FFFEl
    in
    reg_set t rd next;
    t.hooks.on_branch ~pc ~taken:true target;
    if Int32.equal target 0l then begin
      (* return past main: halt with a0 *)
      t.halted <- true;
      t.exit_value <- reg_get t Isa.a0
    end
    else t.pc <- target
  | Branch (c, rs1, rs2, off) ->
    let taken = branch_taken c (reg_get t rs1) (reg_get t rs2) in
    let target = Int32.add pc (Int32.of_int off) in
    t.hooks.on_branch ~pc ~taken target;
    t.pc <- (if taken then target else next)
  | Load (w, rd, rs1, imm) ->
    let addr = Int32.add (reg_get t rs1) (Int32.of_int imm) in
    let v =
      match w with
      | Isa.LW ->
        t.hooks.on_mem ~write:false addr 4;
        Memory.load32 t.mem addr
      | LB ->
        t.hooks.on_mem ~write:false addr 1;
        Int32.of_int ((Memory.load8 t.mem addr lxor 0x80) - 0x80)
      | LBU ->
        t.hooks.on_mem ~write:false addr 1;
        Int32.of_int (Memory.load8 t.mem addr)
      | LH ->
        t.hooks.on_mem ~write:false addr 2;
        let lo = Memory.load8 t.mem addr in
        let hi = Memory.load8 t.mem (Int32.add addr 1l) in
        Int32.of_int ((((hi lsl 8) lor lo) lxor 0x8000) - 0x8000)
      | LHU ->
        t.hooks.on_mem ~write:false addr 2;
        let lo = Memory.load8 t.mem addr in
        let hi = Memory.load8 t.mem (Int32.add addr 1l) in
        Int32.of_int ((hi lsl 8) lor lo)
    in
    reg_set t rd v;
    t.pc <- next
  | Store (w, rs2, rs1, imm) ->
    let addr = Int32.add (reg_get t rs1) (Int32.of_int imm) in
    let v = reg_get t rs2 in
    (match w with
    | Isa.SW ->
      t.hooks.on_mem ~write:true addr 4;
      Memory.store32 t.mem addr v
    | SB ->
      t.hooks.on_mem ~write:true addr 1;
      Memory.store8 t.mem addr (Int32.to_int v)
    | SH ->
      t.hooks.on_mem ~write:true addr 2;
      Memory.store8 t.mem addr (Int32.to_int v);
      Memory.store8 t.mem (Int32.add addr 1l) (Int32.to_int v lsr 8));
    t.pc <- next
  | Op (op, rd, rs1, rs2) ->
    reg_set t rd (alu_op op (reg_get t rs1) (reg_get t rs2));
    t.pc <- next
  | Opi (op, rd, rs1, imm) ->
    reg_set t rd (alu_opi op (reg_get t rs1) imm);
    t.pc <- next
  | Ecall ->
    do_syscall t;
    t.pc <- next);
  ()

(** Run until halt, raising [Out_of_fuel fuel] after [fuel] retired
    instructions. *)
let run ?(fuel = 500_000_000) t =
  let budget = ref fuel in
  while not t.halted do
    if !budget <= 0 then raise (Out_of_fuel fuel);
    decr budget;
    step t
  done;
  t.exit_value

(** Compile [m] and run it with no cost model; returns the exit value
    and the retired instruction count. *)
let run_module ?hooks ?fuel (m : Modul.t) : int32 * int =
  let cg = Codegen.compile m in
  let emu = create ?hooks cg.Codegen.program m in
  let exit_value = run ?fuel emu in
  (exit_value, emu.retired)
