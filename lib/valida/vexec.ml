(** Valida-style executor: frame-cell machine with multi-chip row
    accounting.

    Execution state is just [(pc, fp, memory)] — there is no register
    file to model.  Every instruction appends rows to up to three chip
    tables:

    - cpu: exactly one row per retired instruction;
    - alu: rows for arithmetic work (2 for I64 ops — two 32-bit limbs —
      1 otherwise; precompiles charge their circuit's row count here);
    - mem: one row per 8-byte cell access, 2 for I64 heap values.  All
      operand reads, result writes and the call-frame traffic (saved
      pc/fp, argument copies, return values) land here, because on this
      ISA they *are* memory accesses.

    A segment closes when any one table reaches
    [Vconfig.table_limit] rows (the widest chip is the continuation
    bottleneck, not the sum).  There is no paging: re-entering a segment
    costs nothing beyond the per-segment prover overhead, which is the
    structural difference [bench/exp_isa.ml] measures against RV32.

    Fault injection mirrors {!Zkopt_zkvm.Machine.fault} so the harness
    exercises the same oracle classes on every backend:
    - [Silent_halt_on_boundary_jalr]: a segment boundary on a [Ret]
      silently drops the rest of the run (checksum oracle);
    - [Dropped_page_out]: with no paging to drop, the analogous
      accounting bug drops half the memory chip's rows from the totals
      at segment close (accounting oracle);
    - [Truncated_final_segment] / [Corrupt_exit_value]: as on RV32.

    Traps and fuel exhaustion reuse {!Zkopt_riscv.Emulator.Trap} and
    [Out_of_fuel] so [lib/harness]'s error classification works
    unchanged across backends. *)

open Zkopt_ir
open Zkopt_riscv

type segment = { cpu_rows : int; alu_rows : int; mem_rows : int }

let segment_rows s = s.cpu_rows + s.alu_rows + s.mem_rows

type result = {
  exit_value : int64;
  total_rows : int;  (** fault-adjusted sum over all tables *)
  cpu_rows : int;
  alu_rows : int;
  mem_rows : int;
  segments : segment list;  (** in execution order, un-adjusted *)
  retired : int;
  mem_read_rows : int;
  mem_write_rows : int;
  precompile_calls : int;
  faulted : bool;
}

type state = {
  cfg : Vconfig.t;
  p : Visa.program;
  mem : Memory.t;
  mutable fp : int32;
  mutable pc : int;
  mutable halted : bool;
  mutable exit_value : int64;
  mutable retired : int;
  mutable seg_cpu : int;
  mutable seg_alu : int;
  mutable seg_mem : int;
  mutable tot_cpu : int;
  mutable tot_alu : int;
  mutable tot_mem : int;
  mutable segs : segment list;
  mutable reads : int;
  mutable writes : int;
  mutable precompiles : int;
  mutable faulted : bool;
}

let trap fmt = Printf.ksprintf (fun s -> raise (Emulator.Trap s)) fmt

(* Rows a value of type [ty] occupies in a 32-bit-limb trace table. *)
let tyrows (ty : Ty.t) = match ty with Ty.I64 -> 2 | I32 | Ptr -> 1

let cell_addr fp i = Int32.sub fp (Int32.of_int (8 * (i + 1)))

(* Synthetic pc for provenance/attribution: 4 bytes per instruction. *)
let pc32 idx = Int32.of_int (4 * idx)

(* Shadow RV32 instruction reported to attribution sinks, chosen so the
   profiler's shared shadow-call-stack and mem-op classification logic
   (lib/prof/collect.ml) behaves identically on this backend: calls look
   like [jal ra], returns like [jalr zero, ra], heap traffic like
   loads/stores. *)
let shadow (ins : Visa.ins) idx : Isa.t =
  match ins with
  | Visa.Call c -> Isa.Jal (Isa.ra, 4 * (c.Visa.target - idx))
  | Ret _ -> Isa.Jalr (0, Isa.ra, 0)
  | Load _ -> Isa.Load (Isa.LW, 0, 0, 0)
  | Store _ -> Isa.Store (Isa.SW, 0, 0, 0)
  | Jump t -> Isa.Jal (0, 4 * (t - idx))
  | Cjump _ -> Isa.Branch (Isa.BEQ, 0, 0, 0)
  | Prec _ -> Isa.Ecall
  | Set _ | Bin _ | Cmp _ | Select _ | Cast _ | Lea _ | Frame _ ->
    Isa.Opi (Isa.ADDI, 0, 0, 0)

(* One instruction.  Returns [(ins, alu, memr, memw, precompile)] so the
   caller can report attribution and advance the chip tables. *)
let step st =
  let idx = st.pc in
  if idx < 0 || idx >= Array.length st.p.Visa.code then
    trap "pc %d out of code range" idx;
  let ins = st.p.Visa.code.(idx) in
  st.retired <- st.retired + 1;
  let alu = ref 0 and memr = ref 0 and memw = ref 0 in
  let prec = ref None in
  (* Operand reads charge the memory chip per cell limb; constants are
     committed in the program and cost no memory rows. *)
  let rd ty = function
    | Visa.Cell i ->
      memr := !memr + tyrows ty;
      Memory.load64 st.mem (cell_addr st.fp i)
    | Visa.Const k -> k
  in
  let wr ty d v =
    memw := !memw + tyrows ty;
    Memory.store64 st.mem (cell_addr st.fp d) v
  in
  let next () = st.pc <- idx + 1 in
  (match ins with
  | Visa.Set (ty, d, s) ->
    wr ty d (Eval.norm ty (rd ty s));
    next ()
  | Bin (ty, op, d, a, b) ->
    alu := tyrows ty;
    wr ty d (Eval.binop ty op (rd ty a) (rd ty b));
    next ()
  | Cmp (ty, op, d, a, b) ->
    alu := tyrows ty;
    wr Ty.I32 d (Eval.cmp ty op (rd ty a) (rd ty b));
    next ()
  | Select (ty, d, c, t, f) ->
    alu := 1;
    (* both arms are read (a circuit constrains both); selection is pure *)
    let tv = rd ty t and fv = rd ty f in
    wr ty d (Eval.norm ty (if Eval.to_bool (rd Ty.I32 c) then tv else fv));
    next ()
  | Cast (op, d, s) ->
    alu := 1;
    let sty, dty =
      match op with
      | Instr.Trunc -> (Ty.I64, Ty.I32)
      | Zext | Sext -> (Ty.I32, Ty.I64)
    in
    wr dty d (Eval.cast op (rd sty s));
    next ()
  | Lea (d, base, index, scale, offset) ->
    alu := 1;
    wr Ty.Ptr d (Eval.addr ~base:(rd Ty.Ptr base) ~index:(rd Ty.I32 index) ~scale ~offset);
    next ()
  | Load (ty, d, a) ->
    let addr = Int64.to_int32 (rd Ty.Ptr a) in
    memr := !memr + tyrows ty;
    wr ty d (Memory.load_ty st.mem ty addr);
    next ()
  | Store (ty, a, v) ->
    let addr = Int64.to_int32 (rd Ty.Ptr a) in
    let value = rd ty v in
    memw := !memw + tyrows ty;
    Memory.store_ty st.mem ty addr value;
    next ()
  | Frame (d, delta) ->
    alu := 1;
    wr Ty.Ptr d (Eval.norm32 (Int64.of_int32 (Int32.sub st.fp (Int32.of_int delta))));
    next ()
  | Call c ->
    let argv =
      try
        List.map2 (fun (pcell, ty) s -> (pcell, ty, rd ty s)) c.Visa.params c.Visa.args
      with Invalid_argument _ ->
        trap "%s: argument count mismatch (%d params, %d args)" c.Visa.callee
          (List.length c.Visa.params) (List.length c.Visa.args)
    in
    let new_fp = Int32.sub st.fp (Int32.of_int c.Visa.caller_frame) in
    memw := !memw + 2;
    Memory.store64 st.mem (cell_addr new_fp 0) (Int64.of_int (idx + 1));
    Memory.store64 st.mem (cell_addr new_fp 1) (Int64.of_int32 st.fp);
    List.iter
      (fun (pcell, ty, v) ->
        memw := !memw + tyrows ty;
        Memory.store64 st.mem (cell_addr new_fp pcell) (Eval.norm ty v))
      argv;
    st.fp <- new_fp;
    st.pc <- c.Visa.target
  | Ret r ->
    memr := !memr + 2;
    let saved_pc = Int64.to_int (Memory.load64 st.mem (cell_addr st.fp 0)) in
    let saved_fp = Int64.to_int32 (Memory.load64 st.mem (cell_addr st.fp 1)) in
    let v = Option.map (fun (ty, s) -> rd ty s) r in
    if saved_pc < 0 then begin
      (* main's sentinel frame: halt, journal the i32 checksum *)
      st.halted <- true;
      st.exit_value <- (match v with Some v -> Eval.norm32 v | None -> 0L)
    end
    else begin
      (match
         if saved_pc = 0 || saved_pc > Array.length st.p.Visa.code then None
         else
           match st.p.Visa.code.(saved_pc - 1) with
           | Visa.Call c -> Some c
           | _ -> None
       with
      | Some { Visa.ret = Some d; ret_ty; _ } ->
        let v =
          match v with
          | Some v -> v
          | None -> trap "returned no value to a binding call at %d" (saved_pc - 1)
        in
        memw := !memw + tyrows ret_ty;
        Memory.store64 st.mem (cell_addr saved_fp d) (Eval.norm ret_ty v)
      | Some { Visa.ret = None; _ } -> ()
      | None -> trap "return to non-call site %d" saved_pc);
      st.fp <- saved_fp;
      st.pc <- saved_pc
    end
  | Jump t -> st.pc <- t
  | Cjump (c, t, f) -> st.pc <- (if Eval.to_bool (rd Ty.I32 c) then t else f)
  | Prec { name; args; ret } ->
    st.precompiles <- st.precompiles + 1;
    let cost = Vconfig.precompile_cost st.cfg name in
    alu := !alu + cost;
    prec := Some (name, cost);
    let argv = Array.of_list (List.map (rd Ty.I32) args) in
    let emem =
      {
        Extern.load32 =
          (fun a ->
            memr := !memr + 1;
            Memory.load32 st.mem a);
        store32 =
          (fun a v ->
            memw := !memw + 1;
            Memory.store32 st.mem a v);
      }
    in
    (match (Extern.run name emem argv, ret) with
    | Some v, Some d -> wr Ty.I32 d (Eval.norm32 v)
    | None, Some _ -> trap "precompile %s returned no value to a binding call" name
    | _, None -> ());
    next ());
  (ins, !alu, !memr, !memw, !prec)

let close_segment ?(fault = Zkopt_zkvm.Machine.No_fault) ?(final = false) ?sink
    ~at_pc st =
  let seg = { cpu_rows = st.seg_cpu; alu_rows = st.seg_alu; mem_rows = st.seg_mem } in
  st.segs <- seg :: st.segs;
  (match sink with
  | Some (s : Zkopt_zkvm.Machine.sink) ->
    (* one segment event carrying all tables' rows; no paging dimension *)
    s.Zkopt_zkvm.Machine.on_segment ~pc:at_pc ~user:(segment_rows seg)
      ~paging:0
  | None -> ());
  let cpu, alu, mem =
    match fault with
    | Zkopt_zkvm.Machine.Truncated_final_segment when final && segment_rows seg > 1 ->
      st.faulted <- true;
      (seg.cpu_rows / 2, seg.alu_rows / 2, seg.mem_rows / 2)
    | Zkopt_zkvm.Machine.Dropped_page_out when seg.mem_rows > 1 ->
      (* multi-chip analogue of the write-back accounting bug: half the
         memory chip's rows vanish from the totals at segment close *)
      st.faulted <- true;
      (seg.cpu_rows, seg.alu_rows, seg.mem_rows / 2)
    | _ -> (seg.cpu_rows, seg.alu_rows, seg.mem_rows)
  in
  st.tot_cpu <- st.tot_cpu + cpu;
  st.tot_alu <- st.tot_alu + alu;
  st.tot_mem <- st.tot_mem + mem;
  st.seg_cpu <- 0;
  st.seg_alu <- 0;
  st.seg_mem <- 0

(** Execute a lowered program under configuration [cfg].  The optional
    [sink] receives every accounted row with its synthetic pc (see
    {!shadow}); [fault] injects the cross-backend bug family. *)
let run ?(fault = Zkopt_zkvm.Machine.No_fault) ?(fuel = Emulator.default_fuel)
    ?sink (cfg : Vconfig.t) (p : Visa.program) : result =
  let st =
    {
      cfg;
      p;
      mem = Memory.create ();
      fp = Layout.stack_top;
      pc = p.Visa.main_entry;
      halted = false;
      exit_value = 0L;
      retired = 0;
      seg_cpu = 0;
      seg_alu = 0;
      seg_mem = 0;
      tot_cpu = 0;
      tot_alu = 0;
      tot_mem = 0;
      segs = [];
      reads = 0;
      writes = 0;
      precompiles = 0;
      faulted = false;
    }
  in
  List.iter (fun (addr, init) -> Memory.init_global st.mem addr init) p.Visa.global_inits;
  (* main's frame: sentinel saved pc halts on its Ret *)
  Memory.store64 st.mem (cell_addr st.fp 0) (-1L);
  Memory.store64 st.mem (cell_addr st.fp 1) (Int64.of_int32 st.fp);
  let budget = ref fuel in
  let silent_halt = ref false in
  while (not st.halted) && not !silent_halt do
    if !budget <= 0 then raise (Emulator.Out_of_fuel fuel);
    decr budget;
    let idx = st.pc in
    let ins, alu, memr, memw, prec = step st in
    st.seg_cpu <- st.seg_cpu + 1;
    st.seg_alu <- st.seg_alu + alu;
    st.seg_mem <- st.seg_mem + memr + memw;
    st.reads <- st.reads + memr;
    st.writes <- st.writes + memw;
    (match sink with
    | Some (s : Zkopt_zkvm.Machine.sink) ->
      let pc = pc32 idx in
      let total = 1 + alu + memr + memw in
      (match prec with
      | Some (name, c) ->
        s.Zkopt_zkvm.Machine.on_retires
          (Zkopt_zkvm.Machine.retire1 ~pc (shadow ins idx) ~cost:(total - c));
        s.Zkopt_zkvm.Machine.on_precompile ~pc ~name ~cost:c
      | None ->
        s.Zkopt_zkvm.Machine.on_retires
          (Zkopt_zkvm.Machine.retire1 ~pc (shadow ins idx) ~cost:total))
    | None -> ());
    if
      (not st.halted)
      && (st.seg_cpu >= cfg.Vconfig.table_limit
         || st.seg_alu >= cfg.Vconfig.table_limit
         || st.seg_mem >= cfg.Vconfig.table_limit)
    then begin
      close_segment ~fault ?sink ~at_pc:(pc32 idx) st;
      match (fault, ins) with
      | Zkopt_zkvm.Machine.Silent_halt_on_boundary_jalr, Visa.Ret _ ->
        (* the continuation boundary landed on a return: the buggy
           executor stops mid-run yet reports a verifying trace *)
        st.faulted <- true;
        silent_halt := true
      | _ -> ()
    end
  done;
  close_segment ~fault ~final:true ?sink ~at_pc:(pc32 st.pc) st;
  let exit_value =
    match fault with
    | Zkopt_zkvm.Machine.Corrupt_exit_value ->
      st.faulted <- true;
      Int64.logxor st.exit_value 0x5A5A_5A5AL
    | _ -> st.exit_value
  in
  {
    exit_value;
    total_rows = st.tot_cpu + st.tot_alu + st.tot_mem;
    cpu_rows = st.tot_cpu;
    alu_rows = st.tot_alu;
    mem_rows = st.tot_mem;
    segments = List.rev st.segs;
    retired = st.retired;
    mem_read_rows = st.reads;
    mem_write_rows = st.writes;
    precompile_calls = st.precompiles;
    faulted = st.faulted;
  }

(** Simulated executor wall-clock time in seconds. *)
let exec_time_s (cfg : Vconfig.t) (r : result) =
  ((float_of_int r.total_rows *. cfg.Vconfig.exec_ns_per_row)
  +. cfg.Vconfig.exec_overhead_ns)
  *. 1e-9

(** Accounting identity a healthy run preserves: the totals equal the
    sum over segments of each chip's rows. *)
let check_accounting (r : result) : (unit, string) Stdlib.result =
  let c, a, m =
    List.fold_left
      (fun (c, a, mm) (s : segment) ->
        (c + s.cpu_rows, a + s.alu_rows, mm + s.mem_rows))
      (0, 0, 0) r.segments
  in
  if c + a + m <> r.total_rows then
    Error
      (Printf.sprintf "total rows %d <> segment sum %d (cpu %d alu %d mem %d)"
         r.total_rows (c + a + m) c a m)
  else if r.cpu_rows <> c then
    Error (Printf.sprintf "cpu rows %d <> segment sum %d" r.cpu_rows c)
  else Ok ()
