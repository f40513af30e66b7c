(** The decoded-stream zkVM machine: the library's one RV32
    interpreter.  Every RISC Zero and SP1 cycle, paging and segment
    count, and the CPU timing model's instruction stream, come from
    here.

    Paging model (RISC Zero-style, parameterized): guest memory is split
    into [page_bytes] pages.  Within a segment, the first touch of a page
    charges [page_in_cost]; at segment close, every dirtied page charges
    [page_out_cost] and the touched-set resets (the next segment must
    page everything in again).  Instruction fetch touches the code page.

    What keeps it fast:

    - the program is pre-decoded once ({!decode}) into flat [int] arrays —
      a dense opcode, three operand slots and a packed cost/kind word per
      instruction — so the step dispatch is a jump table over small ints;
    - registers are untagged native ints normalized to sign-extended
      32-bit form at every write ([(v lsl 31) asr 31]), addresses are
      unsigned ints; no [Int32] is allocated anywhere in the loop;
    - page residency is tracked by epoch-stamped two-level int tables
      (segment close is one epoch bump, not a [Hashtbl.reset]) behind
      one-page caches for code fetch and data access;
    - observation is a single closed {!sink} interface selected once at
      {!run} entry.  Without a sink the loop performs zero per-instruction
      indirect calls; with one, retires are delivered in batches and every
      non-retire event is ordered exactly as the reference executor
      ordered its attribution callbacks;
    - the CPU mode ({!cpu}), also chosen at {!run} entry, executes the
      same semantics with nothing priced and reports each retire's one
      dynamic fact to the CPU timing model.

    The boxed reference emulator and the hook-driven reference executor
    live in the test-only oracle library ([test/oracle/]).
    [test/test_machine.ml] pins this machine to [Ref_executor.run] —
    exit value, retired count, cycle/paging/segment accounting, event
    totals, trap messages, and behavior under every injected {!fault}. *)

open Zkopt_ir
open Zkopt_riscv

type fault =
  | No_fault
  | Silent_halt_on_boundary_jalr
      (** §4.2: a shard boundary on an indirect jump silently drops the
          rest of the execution; checksum diverges. *)
  | Dropped_page_out
      (** Accounting bug: every other dirtied page's write-back cost is
          dropped at segment close even though the page-out itself is
          still counted — paging cycles no longer reconcile with the
          page-event counts. *)
  | Truncated_final_segment
      (** The final segment's tail is dropped from the reported cycle
          totals while the per-segment trace keeps the full count — the
          totals no longer reconcile with the segment list (a bogus
          "speedup"). *)
  | Corrupt_exit_value
      (** The journaled exit value is corrupted on halt — a direct
          miscompile shape, caught by the checksum differential oracle. *)

type segment = {
  user_cycles : int;
  paging_cycles : int;
}

type result = {
  exit_value : int32;
  total_cycles : int;
  user_cycles : int;
  paging_cycles : int;
  page_ins : int;
  page_outs : int;
  segments : segment list;        (* in execution order *)
  retired : int;
  loads : int;
  stores : int;
  branches : int;
  precompile_calls : int;
  faulted : bool;                 (* the injected bug fired *)
}

(* ------------------------------------------------------------------ *)
(* Sink: the one observation interface                                 *)
(* ------------------------------------------------------------------ *)

(** A run of retired instructions.  [Batch] views the machine's internal
    buffers directly — valid only for the duration of the callback, so
    consumers must fold immediately and must not retain the arrays.
    [One] carries a single retire (the reference executor and the Valida
    frame machine emit these). *)
type retire_batch =
  | Batch of {
      base : int32;               (* address of isa.(0) *)
      isa : Isa.t array;          (* decoded image, instruction-indexed *)
      idxs : int array;           (* retired instruction indexes *)
      costs : int array;          (* cycle cost charged per retire *)
      n : int;                    (* live prefix length of idxs/costs *)
    }
  | One of { pc : int32; ins : Isa.t; cost : int }

(** Event sink.  The identities a healthy run preserves, per dimension:

    - sum of retire + [on_precompile] costs = [user_cycles]
    - sum of [on_page_in] + [on_page_out] costs = [paging_cycles]
    - the [on_segment] events replay the segment list exactly

    Page-ins are charged to the pc whose fetch/access first touched the
    page; page-outs to the pc that first dirtied the page in the segment;
    segment events to the pc retiring when the segment closed.
    [on_cpu_retire] is the CPU timing model's channel (float cost in
    model cycles); zkVM machines never call it. *)
type sink = {
  on_retires : retire_batch -> unit;
  on_precompile : pc:int32 -> name:string -> cost:int -> unit;
  on_page_in : pc:int32 -> cost:int -> unit;
  on_page_out : pc:int32 -> cost:int -> unit;
  on_segment : pc:int32 -> user:int -> paging:int -> unit;
  on_cpu_retire : pc:int32 -> Isa.t -> cost:float -> unit;
}

(** Build a sink, defaulting every channel to a no-op. *)
let sink ?(on_retires = fun _ -> ()) ?(on_precompile = fun ~pc:_ ~name:_ ~cost:_ -> ())
    ?(on_page_in = fun ~pc:_ ~cost:_ -> ()) ?(on_page_out = fun ~pc:_ ~cost:_ -> ())
    ?(on_segment = fun ~pc:_ ~user:_ ~paging:_ -> ())
    ?(on_cpu_retire = fun ~pc:_ _ ~cost:_ -> ()) () =
  { on_retires; on_precompile; on_page_in; on_page_out; on_segment;
    on_cpu_retire }

let retire1 ~pc ins ~cost = One { pc; ins; cost }

(** Fold [f] over every retire of a batch, in retirement order. *)
let iter_retires f = function
  | One { pc; ins; cost } -> f ~pc ins ~cost
  | Batch b ->
    for i = 0 to b.n - 1 do
      let idx = Array.unsafe_get b.idxs i in
      f
        ~pc:(Int32.add b.base (Int32.of_int (4 * idx)))
        (Array.unsafe_get b.isa idx)
        ~cost:(Array.unsafe_get b.costs i)
    done

(* ------------------------------------------------------------------ *)
(* Pre-decoded code                                                    *)
(* ------------------------------------------------------------------ *)

(* Dense opcode space.  ALU families keep their sub-op index so the
   inner dispatch is one subtraction; control/memory ops are singletons. *)
let op_base_rr = 0 (* .. 17: Op, rop_index *)
let op_base_ri = 18 (* .. 26: Opi, iop_index *)
let op_lui = 27
let op_auipc = 28
let op_jal = 29
let op_jalr = 30
let op_base_branch = 31 (* .. 36: Branch, bcond_index *)
let op_base_load = 37 (* .. 41: Load, lwidth_index *)
let op_base_store = 42 (* .. 44: Store, swidth_index *)
let op_ecall = 45

type code = {
  cfg : Config.t;
  prog : Asm.program;
  modul : Modul.t;
  n : int;
  ops : int array;                (* dense opcode *)
  x1 : int array;                 (* rd / rs1 / rs2-src, per family *)
  x2 : int array;                 (* rs1 / rs2, per family *)
  x3 : int array;                 (* imm / offset / rs2, per family *)
  costk : int array;              (* (instr_cost lsl 2) lor kind *)
  isa : Isa.t array;              (* the original decoded form (= prog.code) *)
  image : Bytes.t;                (* encoded code image, installed per run *)
  base : int;                     (* unsigned address of isa.(0) *)
  base32 : int32;
  entry : int;                    (* unsigned entry pc *)
  globals : (int32 * Modul.init) list;  (* resolved global images *)
  pre_cost : int array;
      (* precompile cycle price by syscall index; -1 = unpriced on this
         config (the price lookup is deferred to call time so the error
         is identical to the reference path's lazy [Invalid_argument]) *)
}

(* kind bits of costk: what the retire prologue must count *)
let k_load = 1
let k_store = 2
let k_branch = 3

let u32 = 0xFFFF_FFFF
let[@inline] sext32 v = (v lsl 31) asr 31

(** Pre-decode [cg]'s program for [cfg].  The decoded stream is
    config-specific only through the packed cost words; everything else
    is pure program structure. *)
let decode (cfg : Config.t) (cg : Codegen.t) (m : Modul.t) : code =
  if Sys.int_size < 63 then
    failwith "Machine: requires 63-bit native ints (64-bit platform)";
  let prog = cg.Codegen.program in
  let isa = prog.Asm.code in
  let n = Array.length isa in
  let ops = Array.make n 0
  and x1 = Array.make n 0
  and x2 = Array.make n 0
  and x3 = Array.make n 0
  and costk = Array.make n 0 in
  let image = Bytes.create (n * 4) in
  for i = 0 to n - 1 do
    let ins = isa.(i) in
    Bytes.set_int32_le image (i * 4) (Isa.encode ins);
    let kind =
      match ins with
      | Isa.Load _ -> k_load
      | Store _ -> k_store
      | Branch _ | Jal _ | Jalr _ -> k_branch
      | _ -> 0
    in
    costk.(i) <- (Config.instr_cost cfg ins lsl 2) lor kind;
    (match ins with
    | Isa.Op (op, rd, rs1, rs2) ->
      ops.(i) <- op_base_rr + Isa.rop_index op;
      x1.(i) <- rd;
      x2.(i) <- rs1;
      x3.(i) <- rs2
    | Opi (op, rd, rs1, imm) ->
      ops.(i) <- op_base_ri + Isa.iop_index op;
      x1.(i) <- rd;
      x2.(i) <- rs1;
      x3.(i) <- imm
    | Lui (rd, imm) ->
      ops.(i) <- op_lui;
      x1.(i) <- rd;
      x3.(i) <- Int32.to_int imm
    | Auipc (rd, imm) ->
      ops.(i) <- op_auipc;
      x1.(i) <- rd;
      x3.(i) <- Int32.to_int imm
    | Jal (rd, off) ->
      ops.(i) <- op_jal;
      x1.(i) <- rd;
      x3.(i) <- off
    | Jalr (rd, rs1, imm) ->
      ops.(i) <- op_jalr;
      x1.(i) <- rd;
      x2.(i) <- rs1;
      x3.(i) <- imm
    | Branch (c, rs1, rs2, off) ->
      ops.(i) <- op_base_branch + Isa.bcond_index c;
      x1.(i) <- rs1;
      x2.(i) <- rs2;
      x3.(i) <- off
    | Load (w, rd, rs1, imm) ->
      ops.(i) <- op_base_load + Isa.lwidth_index w;
      x1.(i) <- rd;
      x2.(i) <- rs1;
      x3.(i) <- imm
    | Store (w, rs2, rs1, imm) ->
      ops.(i) <- op_base_store + Isa.swidth_index w;
      x1.(i) <- rs2;
      x2.(i) <- rs1;
      x3.(i) <- imm
    | Ecall -> ops.(i) <- op_ecall)
  done;
  let entry =
    match Hashtbl.find_opt prog.Asm.symbols "main" with
    | Some a -> Int32.to_int a land u32
    | None -> raise (Emulator.Trap "no main symbol")
  in
  let globals =
    List.filter_map
      (fun (g : Modul.global) ->
        match Hashtbl.find_opt prog.Asm.symbols g.gname with
        | Some addr -> Some (addr, g.init)
        | None -> None)
      m.Modul.globals
  in
  let pre_cost =
    Array.map
      (fun (name, _arity) ->
        match List.assoc_opt name cfg.Config.precompile_costs with
        | Some c -> c
        | None -> -1)
      Emulator.precompile_signatures
  in
  { cfg; prog; modul = m; n; ops; x1; x2; x3; costk; isa; image;
    base = Int32.to_int prog.Asm.base land u32; base32 = prog.Asm.base;
    entry; globals; pre_cost }

(* ------------------------------------------------------------------ *)
(* Run state                                                           *)
(* ------------------------------------------------------------------ *)

(* Epoch-stamped page tables: pages are numbered addr / page_bytes and
   stamped through a two-level int directory (rows of 1024, allocated on
   first use).  "Touched / dirtied this segment" is "stamp = current
   epoch"; closing a segment bumps the epoch, resetting every page in
   O(1). *)
let prow_bits = 10
let prow_size = 1 lsl prow_bits
let no_prow : int array = [||]

let buf_cap = 4096

type st = {
  c : code;
  mem : Memory.t;
  regs : int array;               (* sign-extended native ints; x0 pinned 0 *)
  mutable pc : int;               (* unsigned *)
  mutable halted : bool;
  mutable exit_value : int;       (* sign-extended *)
  mutable retired : int;
  (* segment accumulators *)
  mutable user : int;
  mutable paging : int;
  mutable total_user : int;
  mutable total_paging : int;
  mutable page_ins : int;
  mutable page_outs : int;
  mutable segs : segment list;
  mutable loads : int;
  mutable stores : int;
  mutable branches : int;
  mutable precompiles : int;
  mutable faulted : bool;
  mutable pending : bool;         (* segment boundary reached mid-step *)
  mutable silent : bool;          (* the silent-halt fault fired *)
  mutable cur_pc : int;           (* pc of the retiring instruction *)
  (* paging *)
  page_bytes : int;
  page_shift : int;               (* lsr shift when page_bytes is 2^k, else -1 *)
  in_cost : int;
  out_cost : int;
  seg_limit : int;
  tep : int array array;          (* touched-epoch directory *)
  dep : int array array;          (* dirtied-epoch directory *)
  mutable epoch : int;
  mutable dirty_pcs : int array;  (* first-dirtying pc, segment insertion order *)
  mutable dirty_n : int;
  (* one-page caches, invalidated at segment close *)
  mutable code_lo : int;          (* fetch fast path: pc in [code_lo, code_hi) *)
  mutable code_hi : int;
  mutable data_page : int;
  mutable data_dirty : bool;      (* data_page known dirtied this segment *)
  (* sink retire buffer *)
  buf_idx : int array;
  buf_cost : int array;
  mutable buf_n : int;
}

let[@inline] page_of st a =
  if st.page_shift >= 0 then a lsr st.page_shift else a / st.page_bytes

let[@inline] rget st r = Array.unsafe_get st.regs r

let[@inline] rset st r v =
  if r <> 0 then Array.unsafe_set st.regs r v

let flush st (s : sink) =
  if st.buf_n > 0 then begin
    let n = st.buf_n in
    st.buf_n <- 0;
    s.on_retires
      (Batch { base = st.c.base32; isa = st.c.isa; idxs = st.buf_idx;
               costs = st.buf_cost; n })
  end

let prow dir hi =
  let r = Array.unsafe_get dir hi in
  if r != no_prow then r
  else begin
    let r = Array.make prow_size 0 in
    Array.unsafe_set dir hi r;
    r
  end

(* First-touch / first-dirty bookkeeping for [page]; out of line — the
   callers' cache checks keep this off the per-access path. *)
let touch_page st sink ~write page =
  let hi = page lsr prow_bits and lo = page land (prow_size - 1) in
  let tr = prow st.tep hi in
  if Array.unsafe_get tr lo <> st.epoch then begin
    Array.unsafe_set tr lo st.epoch;
    st.paging <- st.paging + st.in_cost;
    st.page_ins <- st.page_ins + 1;
    match sink with
    | Some s ->
      flush st s;
      s.on_page_in ~pc:(Int32.of_int st.cur_pc) ~cost:st.in_cost
    | None -> ()
  end;
  if write then begin
    let dr = prow st.dep hi in
    if Array.unsafe_get dr lo <> st.epoch then begin
      Array.unsafe_set dr lo st.epoch;
      if st.dirty_n = Array.length st.dirty_pcs then begin
        let bigger = Array.make (2 * st.dirty_n) 0 in
        Array.blit st.dirty_pcs 0 bigger 0 st.dirty_n;
        st.dirty_pcs <- bigger
      end;
      st.dirty_pcs.(st.dirty_n) <- st.cur_pc;
      st.dirty_n <- st.dirty_n + 1
    end
  end

(* Data-access touch with a one-page cache: loops that stay on one page
   (almost all of them) resolve in a compare and a branch. *)
let[@inline] touch_data st sink ~write a =
  let p = page_of st a in
  if p = st.data_page then begin
    if write && not st.data_dirty then begin
      touch_page st sink ~write:true p;
      st.data_dirty <- true
    end
  end
  else begin
    touch_page st sink ~write p;
    st.data_page <- p;
    st.data_dirty <- write
  end

let close_segment ~fault ~final st sink =
  (match sink with Some s -> flush st s | None -> ());
  let outs = st.dirty_n in
  let charged =
    match fault with
    | Dropped_page_out ->
      let charged = (outs + 1) / 2 in
      if charged < outs then st.faulted <- true;
      charged
    | _ -> outs
  in
  st.paging <- st.paging + (charged * st.out_cost);
  (match sink with
  | Some s ->
    (* charge write-backs to the first-dirtying pcs; under the injected
       accounting fault only the actually-charged count is attributed, so
       the attribution stays conserved against the (buggy) totals *)
    for i = 0 to charged - 1 do
      s.on_page_out ~pc:(Int32.of_int st.dirty_pcs.(i)) ~cost:st.out_cost
    done
  | None -> ());
  st.page_outs <- st.page_outs + outs;
  (match sink with
  | Some s ->
    s.on_segment ~pc:(Int32.of_int st.cur_pc) ~user:st.user ~paging:st.paging
  | None -> ());
  st.segs <- { user_cycles = st.user; paging_cycles = st.paging } :: st.segs;
  (match fault with
  | Truncated_final_segment when final && st.user > 1 ->
    st.faulted <- true;
    st.total_user <- st.total_user + (st.user / 2)
  | _ -> st.total_user <- st.total_user + st.user);
  st.total_paging <- st.total_paging + st.paging;
  st.user <- 0;
  st.paging <- 0;
  st.epoch <- st.epoch + 1;
  st.dirty_n <- 0;
  st.code_lo <- 1;
  st.code_hi <- 0;
  st.data_page <- -1;
  st.data_dirty <- false

(* ------------------------------------------------------------------ *)
(* The step                                                            *)
(* ------------------------------------------------------------------ *)

let pc_out_of_range pc =
  raise
    (Emulator.Trap
       (Printf.sprintf "pc out of range: 0x%08lx" (Int32.of_int pc)))

(* Extern precompiles speak the int32 memory interface; [note] sees each
   word's unsigned address before it is accessed. *)
let extern_mem st (note : write:bool -> int -> unit) =
  {
    Extern.load32 =
      (fun a ->
        note ~write:false (Int32.to_int a land u32);
        Memory.load32 st.mem a);
    store32 =
      (fun a v ->
        note ~write:true (Int32.to_int a land u32);
        Memory.store32 st.mem a v);
  }

(* The syscall in a7: halt (and return -1), or return the index of the
   precompile to run; an unknown number traps. *)
let syscall st =
  let id = rget st Isa.a7 in
  if id = Emulator.syscall_halt then begin
    st.halted <- true;
    st.exit_value <- rget st Isa.a0;
    -1
  end
  else begin
    let i = id - Emulator.syscall_precompile_base in
    if i < 0 || i >= Array.length Emulator.precompile_signatures then
      raise (Emulator.Trap (Printf.sprintf "unknown syscall %d" id));
    i
  end

(* Run precompile [i] over [mem]: arguments from a0.., result to a0. *)
let run_precompile st i mem =
  let name, arity = Array.unsafe_get Emulator.precompile_signatures i in
  let args =
    Array.init arity (fun k -> Int64.of_int (rget st (Isa.a0 + k) land u32))
  in
  match Extern.run name mem args with
  | Some v -> rset st Isa.a0 (sext32 (Int64.to_int v))
  | None -> ()

let do_ecall st sink =
  let i = syscall st in
  if i >= 0 then begin
    let name = fst (Array.unsafe_get Emulator.precompile_signatures i) in
    st.precompiles <- st.precompiles + 1;
    let cost =
      let c = st.c.pre_cost.(i) in
      if c >= 0 then c else Config.precompile_cost st.c.cfg name
    in
    st.user <- st.user + cost;
    (match sink with
    | Some s ->
      flush st s;
      s.on_precompile ~pc:(Int32.of_int st.cur_pc) ~name ~cost
    | None -> ());
    (* extern accesses touch pages for paging costs but do not count as
       load/store instructions *)
    run_precompile st i
      (extern_mem st (fun ~write a -> touch_data st sink ~write a))
  end

(* Instruction semantics shared by the zk step and the CPU step; inlined,
   so neither loop pays a call for them. *)

(* register-register ALU *)
let[@inline] alu_rr st c idx op =
  let a = rget st (Array.unsafe_get c.x2 idx) in
  let b = rget st (Array.unsafe_get c.x3 idx) in
  let v =
    match op with
    | 0 (* ADD *) -> sext32 (a + b)
    | 1 (* SUB *) -> sext32 (a - b)
    | 2 (* SLL *) -> sext32 (a lsl (b land 31))
    | 3 (* SLT *) -> if a < b then 1 else 0
    | 4 (* SLTU *) -> if a land u32 < b land u32 then 1 else 0
    | 5 (* XOR *) -> a lxor b
    | 6 (* SRL *) -> sext32 ((a land u32) lsr (b land 31))
    | 7 (* SRA *) -> a asr (b land 31)
    | 8 (* OR *) -> a lor b
    | 9 (* AND *) -> a land b
    | 10 (* MUL *) -> sext32 (a * b)
    | 11 (* MULH *) ->
      Int64.to_int
        (Int64.shift_right (Int64.mul (Int64.of_int a) (Int64.of_int b)) 32)
    | 12 (* MULHSU *) ->
      Int64.to_int
        (Int64.shift_right
           (Int64.mul (Int64.of_int a) (Int64.of_int (b land u32)))
           32)
    | 13 (* MULHU *) ->
      sext32
        (Int64.to_int
           (Int64.shift_right_logical
              (Int64.mul (Int64.of_int (a land u32)) (Int64.of_int (b land u32)))
              32))
    | 14 (* DIV *) ->
      if b = 0 then -1
      else if a = -0x8000_0000 && b = -1 then -0x8000_0000
      else a / b
    | 15 (* DIVU *) ->
      if b = 0 then -1 else sext32 ((a land u32) / (b land u32))
    | 16 (* REM *) ->
      if b = 0 then a
      else if a = -0x8000_0000 && b = -1 then 0
      else a mod b
    | _ (* REMU *) ->
      if b = 0 then a else sext32 ((a land u32) mod (b land u32))
  in
  rset st (Array.unsafe_get c.x1 idx) v

(* register-immediate ALU; imm is pre-sign-extended at decode *)
let[@inline] alu_ri st c idx op =
  let a = rget st (Array.unsafe_get c.x2 idx) in
  let imm = Array.unsafe_get c.x3 idx in
  let v =
    match op - op_base_ri with
    | 0 (* ADDI *) -> sext32 (a + imm)
    | 1 (* SLTI *) -> if a < imm then 1 else 0
    | 2 (* SLTIU *) -> if a land u32 < imm land u32 then 1 else 0
    | 3 (* XORI *) -> a lxor imm
    | 4 (* ORI *) -> a lor imm
    | 5 (* ANDI *) -> a land imm
    | 6 (* SLLI *) -> sext32 (a lsl (imm land 31))
    | 7 (* SRLI *) -> sext32 ((a land u32) lsr (imm land 31))
    | _ (* SRAI *) -> a asr (imm land 31)
  in
  rset st (Array.unsafe_get c.x1 idx) v

(* Lui, Auipc, Jal, Jalr: write rd and move the pc *)
let[@inline] upper_or_jump st c idx op pc =
  let next = pc + 4 in
  match op with
  | 27 (* Lui *) ->
    rset st (Array.unsafe_get c.x1 idx) (Array.unsafe_get c.x3 idx);
    st.pc <- next
  | 28 (* Auipc *) ->
    rset st (Array.unsafe_get c.x1 idx)
      (sext32 (pc + Array.unsafe_get c.x3 idx));
    st.pc <- next
  | 29 (* Jal *) ->
    rset st (Array.unsafe_get c.x1 idx) (sext32 next);
    st.pc <- (pc + Array.unsafe_get c.x3 idx) land u32
  | _ (* 30 Jalr *) ->
    let target =
      (rget st (Array.unsafe_get c.x2 idx) + Array.unsafe_get c.x3 idx)
      land 0xFFFF_FFFE
    in
    rset st (Array.unsafe_get c.x1 idx) (sext32 next);
    if target = 0 then begin
      (* return past main: halt with a0; pc deliberately unchanged *)
      st.halted <- true;
      st.exit_value <- rget st Isa.a0
    end
    else st.pc <- target

(* whether the conditional branch at [idx] is taken *)
let[@inline] taken st c idx op =
  let a = rget st (Array.unsafe_get c.x1 idx) in
  let b = rget st (Array.unsafe_get c.x2 idx) in
  match op - op_base_branch with
  | 0 (* BEQ *) -> a = b
  | 1 (* BNE *) -> a <> b
  | 2 (* BLT *) -> a < b
  | 3 (* BGE *) -> a >= b
  | 4 (* BLTU *) -> a land u32 < b land u32
  | _ (* BGEU *) -> a land u32 >= b land u32

(* unsigned effective address of the load or store at [idx] *)
let[@inline] mem_addr st c idx =
  (rget st (Array.unsafe_get c.x2 idx) + Array.unsafe_get c.x3 idx) land u32

let[@inline] load st c idx op addr =
  let v =
    match op - op_base_load with
    | 0 (* LB *) -> (Memory.get8 st.mem addr lxor 0x80) - 0x80
    | 1 (* LH *) ->
      let lo = Memory.get8 st.mem addr in
      let hi = Memory.get8 st.mem ((addr + 1) land u32) in
      (((hi lsl 8) lor lo) lxor 0x8000) - 0x8000
    | 2 (* LW *) -> Memory.get32s st.mem addr
    | 3 (* LBU *) -> Memory.get8 st.mem addr
    | _ (* LHU *) ->
      let lo = Memory.get8 st.mem addr in
      let hi = Memory.get8 st.mem ((addr + 1) land u32) in
      (hi lsl 8) lor lo
  in
  rset st (Array.unsafe_get c.x1 idx) v

let[@inline] store st c idx op addr =
  let v = rget st (Array.unsafe_get c.x1 idx) in
  match op - op_base_store with
  | 0 (* SB *) -> Memory.set8 st.mem addr v
  | 1 (* SH *) ->
    Memory.set8 st.mem addr v;
    Memory.set8 st.mem ((addr + 1) land u32) (v lsr 8)
  | _ (* SW *) -> Memory.set32 st.mem addr v

let step st sink fault_silent =
  let c = st.c in
  let pc = st.pc in
  let off = sext32 (pc - c.base) in
  let idx = off / 4 in
  if idx < 0 || idx >= c.n then pc_out_of_range pc;
  st.cur_pc <- pc;
  (* fetch touches the code page (one-page cache fast path) *)
  if pc < st.code_lo || pc >= st.code_hi then begin
    let p = page_of st pc in
    touch_page st sink ~write:false p;
    st.code_lo <- p * st.page_bytes;
    st.code_hi <- st.code_lo + st.page_bytes
  end;
  let ck = Array.unsafe_get c.costk idx in
  let cost = ck lsr 2 in
  (match sink with
  | Some s ->
    if st.buf_n = buf_cap then flush st s;
    Array.unsafe_set st.buf_idx st.buf_n idx;
    Array.unsafe_set st.buf_cost st.buf_n cost;
    st.buf_n <- st.buf_n + 1
  | None -> ());
  st.retired <- st.retired + 1;
  st.user <- st.user + cost;
  let kind = ck land 3 in
  if kind <> 0 then
    if kind = k_load then st.loads <- st.loads + 1
    else if kind = k_store then st.stores <- st.stores + 1
    else st.branches <- st.branches + 1;
  if st.user >= st.seg_limit then begin
    st.pending <- true;
    if fault_silent && Array.unsafe_get c.ops idx = op_jalr then begin
      (* the shard boundary landed on an indirect jump (a function
         return): the buggy executor drops the rest of the execution on
         the floor yet still emits a provable, verifying trace *)
      st.faulted <- true;
      st.silent <- true
    end
  end;
  let op = Array.unsafe_get c.ops idx in
  let next = pc + 4 in
  if op < op_base_ri then begin
    alu_rr st c idx op;
    st.pc <- next
  end
  else if op < op_lui then begin
    alu_ri st c idx op;
    st.pc <- next
  end
  else
    match op with
    | 27 | 28 | 29 | 30 -> upper_or_jump st c idx op pc
    | 31 | 32 | 33 | 34 | 35 | 36 ->
      st.pc <-
        (if taken st c idx op then (pc + Array.unsafe_get c.x3 idx) land u32
         else next)
    | 37 | 38 | 39 | 40 | 41 ->
      let addr = mem_addr st c idx in
      (* paging is charged to the page of [addr] even for multi-byte
         accesses, exactly as the reference executor's hook did *)
      touch_data st sink ~write:false addr;
      load st c idx op addr;
      st.pc <- next
    | 42 | 43 | 44 ->
      let addr = mem_addr st c idx in
      touch_data st sink ~write:true addr;
      store st c idx op addr;
      st.pc <- next
    | _ (* 45 Ecall *) ->
      do_ecall st sink;
      st.pc <- next

(* ------------------------------------------------------------------ *)
(* CPU mode                                                            *)
(* ------------------------------------------------------------------ *)

type cpu = {
  on_retire : int -> int -> unit;
  on_extern : write:bool -> int -> unit;
}

(* The zk step's semantics with nothing priced: no cost words, paging or
   segments, so the run is the same under every config.  Each retire is
   reported after it executes, with its one dynamic fact. *)
let step_cpu st (cpu : cpu) =
  let c = st.c in
  let pc = st.pc in
  let idx = sext32 (pc - c.base) / 4 in
  if idx < 0 || idx >= c.n then pc_out_of_range pc;
  st.retired <- st.retired + 1;
  let op = Array.unsafe_get c.ops idx in
  let next = pc + 4 in
  if op < op_base_ri then begin
    alu_rr st c idx op;
    st.pc <- next;
    cpu.on_retire idx 0
  end
  else if op < op_lui then begin
    alu_ri st c idx op;
    st.pc <- next;
    cpu.on_retire idx 0
  end
  else
    match op with
    | 27 | 28 | 29 | 30 ->
      upper_or_jump st c idx op pc;
      cpu.on_retire idx 0
    | 31 | 32 | 33 | 34 | 35 | 36 ->
      if taken st c idx op then begin
        st.pc <- (pc + Array.unsafe_get c.x3 idx) land u32;
        cpu.on_retire idx 1
      end
      else begin
        st.pc <- next;
        cpu.on_retire idx 0
      end
    | 37 | 38 | 39 | 40 | 41 ->
      let addr = mem_addr st c idx in
      load st c idx op addr;
      st.pc <- next;
      cpu.on_retire idx addr
    | 42 | 43 | 44 ->
      let addr = mem_addr st c idx in
      store st c idx op addr;
      st.pc <- next;
      cpu.on_retire idx addr
    | _ (* 45 Ecall *) ->
      let i = syscall st in
      if i >= 0 then run_precompile st i (extern_mem st cpu.on_extern);
      st.pc <- next;
      cpu.on_retire idx i

let cpu_loop st cpu fuel =
  let budget = ref fuel in
  while not st.halted do
    if !budget <= 0 then raise (Emulator.Out_of_fuel fuel);
    decr budget;
    step_cpu st cpu
  done

(* ------------------------------------------------------------------ *)
(* Run                                                                 *)
(* ------------------------------------------------------------------ *)

(* Only the mode chosen at entry gets its state: the page directories
   when pricing (not in the CPU mode), the retire buffer with a sink. *)
let fresh_state ~priced ~buffered (c : code) : st =
  let mem = Memory.create () in
  Memory.store_image mem c.base c.image;
  List.iter (fun (addr, init) -> Memory.init_global mem addr init) c.globals;
  let regs = Array.make 32 0 in
  regs.(Isa.sp) <- Int32.to_int Zkopt_ir.Layout.stack_top;
  let page_bytes = c.cfg.Config.page_bytes in
  let page_shift =
    if page_bytes > 0 && page_bytes land (page_bytes - 1) = 0 then begin
      let s = ref 0 in
      while 1 lsl !s < page_bytes do incr s done;
      !s
    end
    else -1
  in
  let top =
    if priced then ((u32 / page_bytes) + 1 + (prow_size - 1)) / prow_size
    else 0
  in
  let buf = if buffered then buf_cap else 0 in
  {
    c; mem; regs; pc = c.entry; halted = false; exit_value = 0; retired = 0;
    user = 0; paging = 0; total_user = 0; total_paging = 0;
    page_ins = 0; page_outs = 0; segs = []; loads = 0; stores = 0;
    branches = 0; precompiles = 0; faulted = false;
    pending = false; silent = false; cur_pc = 0;
    page_bytes; page_shift;
    in_cost = c.cfg.Config.page_in_cost;
    out_cost = c.cfg.Config.page_out_cost;
    seg_limit = c.cfg.Config.segment_limit;
    tep = Array.make top no_prow; dep = Array.make top no_prow; epoch = 1;
    dirty_pcs = Array.make 256 0; dirty_n = 0;
    code_lo = 1; code_hi = 0; data_page = -1; data_dirty = false;
    buf_idx = Array.make buf 0; buf_cost = Array.make buf 0;
    buf_n = 0;
  }

let exec_loop st sink fault fuel =
  let fault_silent = fault = Silent_halt_on_boundary_jalr in
  let budget = ref fuel in
  while (not st.halted) && not st.silent do
    if !budget <= 0 then raise (Emulator.Out_of_fuel fuel);
    decr budget;
    step st sink fault_silent;
    if st.pending && not st.silent then begin
      st.pending <- false;
      close_segment ~fault ~final:false st sink
    end
  done;
  close_segment ~fault ~final:true st sink

(** Execute pre-decoded [c].  The mode is selected here, once: without a
    sink the loop makes zero per-instruction indirect calls; with one,
    retires arrive batched and every other event is delivered in the
    reference executor's order; with [cpu] the machine runs its CPU loop
    instead. *)
let run ?(fault = No_fault) ?(fuel = 500_000_000) ?sink ?cpu (c : code) :
    result =
  let st =
    fresh_state ~priced:(Option.is_none cpu) ~buffered:(Option.is_some sink) c
  in
  (match (cpu, sink) with
  | Some cpu, None when fault = No_fault -> cpu_loop st cpu fuel
  | Some _, _ -> invalid_arg "Machine.run: the CPU mode takes no sink or fault"
  | None, None -> exec_loop st None fault fuel
  | None, Some s -> (
    (* deliver buffered retires even when the guest traps or runs out of
       fuel: the reference path reported events eagerly, so a consumer
       observing a partial run must still see every retired instruction *)
    try exec_loop st sink fault fuel
    with e ->
      flush st s;
      raise e));
  let exit_value =
    match fault with
    | Corrupt_exit_value ->
      st.faulted <- true;
      Int32.logxor (Int32.of_int st.exit_value) 0x5A5A5A5Al
    | _ -> Int32.of_int st.exit_value
  in
  {
    exit_value;
    total_cycles = st.total_user + st.total_paging;
    user_cycles = st.total_user;
    paging_cycles = st.total_paging;
    page_ins = st.page_ins;
    page_outs = st.page_outs;
    segments = List.rev st.segs;
    retired = st.retired;
    loads = st.loads;
    stores = st.stores;
    branches = st.branches;
    precompile_calls = st.precompiles;
    faulted = st.faulted;
  }
