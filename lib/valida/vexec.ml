(** Valida-style executor: the decoded frame-cell machine with
    multi-chip row accounting, the library's one Valida interpreter.

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
    unchanged across backends.

    What keeps it fast:

    - each program is decoded once ({!decode}, when the backend builds
      its artifact) into flat [int] arrays: a dense opcode, cell
      operands as byte offsets below [fp], constants as offsets into one
      pool, each instruction's static chip rows packed in one word, and
      call-site tables.  The decoded form is the whole artifact (the
      backend keeps no [Visa.program]), at about 10 words per
      instruction against the program's 17;
    - values stay [int64], as in the reference, but unboxed: cells are
      read and written as 8-byte little-endian words of a cached 4 KiB
      memory chunk ({!Zkopt_ir.Memory.chunk_at}), heap words through a
      second cached chunk, constants from a [Bytes] pool, so the no-sink
      loop allocates nothing per retired instruction.  Only division,
      remainder, I64 [Mulhu] and precompiles call out
      ({!Zkopt_ir.Eval.binop}, {!Zkopt_ir.Extern.run}) and box;
    - the sink and the fault are chosen once at {!run} entry, as
      {!Zkopt_zkvm.Machine.run} does: without a sink the loop makes no
      per-instruction indirect call, and the fault is read only when a
      segment closes.

    The boxed interpreter this machine replaced is the test-only oracle
    [Ref_vexec] ([test/oracle/]); the [valida] tests
    ([test/test_valida.ml]) pin {!run} to it bit for bit: results, trap
    messages, fuel starvation, sink events and every injected fault. *)

open Zkopt_ir
open Zkopt_riscv
module Machine = Zkopt_zkvm.Machine

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

let trap fmt = Printf.ksprintf (fun s -> raise (Emulator.Trap s)) fmt

(* ------------------------------------------------------------------ *)
(* Decoded code                                                        *)
(* ------------------------------------------------------------------ *)

(* Dense opcodes.  The binop and comparison families keep their sub-op
   index, so one subtraction recovers it; the rest are singletons. *)
let op_set32 = 0
let op_set64 = 1
let op_bin32 = 2 (* .. 11: + inline_binop index *)
let op_bin64 = 12 (* .. 20 *)
let op_cmp32 = 21 (* .. 30: + cmp_index *)
let op_cmp64 = 31 (* .. 40 *)
let op_eval = 41 (* a binop handed to Eval.binop *)
let op_select32 = 42
let op_select64 = 43
let op_low32 = 44 (* Trunc and Zext: both keep the low word *)
let op_sext = 45
let op_lea = 46
let op_load32 = 47
let op_load64 = 48
let op_store32 = 49
let op_store64 = 50
let op_frame = 51
let op_call = 52
let op_call_arity = 53 (* a call whose argument count mismatches *)
let op_ret = 54
let op_jump = 55
let op_cjump = 56
let op_prec = 57

(* Sub-op index of a binop the loop evaluates inline; [None] for the
   rare ones it hands to {!Eval.binop}: division, remainder, I64
   [Mulhu]. *)
let inline_binop (ty : Ty.t) (op : Instr.binop) =
  match (op, ty) with
  | Instr.Add, _ -> Some 0
  | Sub, _ -> Some 1
  | Mul, _ -> Some 2
  | And, _ -> Some 3
  | Or, _ -> Some 4
  | Xor, _ -> Some 5
  | Shl, _ -> Some 6
  | Lshr, _ -> Some 7
  | Ashr, _ -> Some 8
  | Mulhu, (Ty.I32 | Ptr) -> Some 9
  | Mulhu, I64 | (Div | Rem | Udiv | Urem), _ -> None

let cmp_index : Instr.cmpop -> int = function
  | Eq -> 0
  | Ne -> 1
  | Slt -> 2
  | Sle -> 3
  | Sgt -> 4
  | Sge -> 5
  | Ult -> 6
  | Ule -> 7
  | Ugt -> 8
  | Uge -> 9

(* A precompile call site. *)
type prec = {
  name : string;
  cost : int;  (* ALU rows per call; -1 = unpriced under this config *)
  pargs : int array;  (* operands *)
  pret : int;  (* result cell offset; 0 = none *)
}

(* Per instruction [i], by family (an operand is a cell's byte offset
   below fp when positive, or minus (8 + its byte offset in [pool])):

   - set, cast, load: [dst.(i)] cell, [xa.(i)] operand;
   - binop, comparison, eval: [dst.(i)], operands [xa.(i)], [xb.(i)];
     eval: [xe.(i)] indexes [evals];
   - select: [dst.(i)], cond [xa.(i)], arms [xb.(i)], [xc.(i)];
   - lea: [dst.(i)], base [xa.(i)], index [xb.(i)], scale [xc.(i)],
     offset [xe.(i)];  store: address [xa.(i)], value [xb.(i)];
   - frame: [dst.(i)], delta [xe.(i)];
   - call: return cell [dst.(i)] (0 = none), target [xa.(i)], its
     parameters [args.(xb.(i))], I64 result [xc.(i)] = 1, caller frame
     bytes [xe.(i)]; a mismatched call's trap message is [traps.(xe.(i))];
   - ret: value operand [xa.(i)] (0 = none);
   - jump: target [xa.(i)];  cjump: cond [xa.(i)], targets [xb.(i)],
     [xc.(i)];
   - prec: [xe.(i)] indexes [precs]. *)
type code = {
  cfg : Vconfig.t;
  n : int;
  entry : int;  (* main's first instruction *)
  images : (int * Bytes.t) list;  (* initialized globals: address, bytes *)
  srcmap : (string * string) array;
      (* (function, IR block) provenance, one shared pair per block *)
  ops : int array;
  dst : int array;
  xa : int array;
  xb : int array;
  xc : int array;
  xe : int array;
  rows : int array;
      (* static chip rows, 21 bits each: ALU rows, memory read rows
         shifted by [row_bits], all memory rows by [2 * row_bits] *)
  pool : Bytes.t;  (* constants, 8 bytes each, little-endian *)
  args : int array array;
      (* a call's parameters, three ints each: the callee cell's offset,
         1 if I64, the argument operand *)
  max_args : int;
  evals : (Ty.t * Instr.binop) array;
  traps : string array;
  precs : prec array;
}

(* Rows a value of type [ty] occupies in a 32-bit-limb trace table. *)
let tyrows (ty : Ty.t) = match ty with Ty.I64 -> 2 | I32 | Ptr -> 1

(* Rows reading an operand charges: constants are committed in the
   program and cost no memory rows. *)
let src_rows ty = function Visa.Cell _ -> tyrows ty | Const _ -> 0

let is64 (ty : Ty.t) = match ty with Ty.I64 -> 1 | I32 | Ptr -> 0

let cell_off d = 8 * (d + 1)

let row_bits = 21
let row_mask = (1 lsl row_bits) - 1

(** Decode [p] for [cfg], once per artifact.  The decoded form is
    config-specific only through the precompile prices; a run never
    writes to it, so one [code] serves concurrent runs. *)
let decode (cfg : Vconfig.t) (p : Visa.program) : code =
  let n = Array.length p.Visa.code in
  let ops = Array.make n 0
  and dst = Array.make n 0
  and xa = Array.make n 0
  and xb = Array.make n 0
  and xc = Array.make n 0
  and xe = Array.make n 0
  and rows = Array.make n 0 in
  let pool = Buffer.create 64 and consts = Hashtbl.create 16 in
  let src = function
    | Visa.Cell i -> cell_off i
    | Const k ->
      let off =
        match Hashtbl.find_opt consts k with
        | Some off -> off
        | None ->
          let off = Buffer.length pool in
          Buffer.add_int64_le pool k;
          Hashtbl.replace consts k off;
          off
      in
      -(8 + off)
  in
  (* append [x] to a side table; returns its index *)
  let side (len, l) x =
    l := x :: !l;
    incr len;
    !len - 1
  in
  let args = (ref 0, ref []) and evals = (ref 0, ref []) in
  let traps = (ref 0, ref []) and precs = (ref 0, ref []) in
  let max_args = ref 0 in
  Array.iteri
    (fun i (ins : Visa.ins) ->
      let set op ?(d = 0) ?(a = 0) ?(b = 0) ?(c = 0) ?(e = 0) ~ra ~rr ~rw () =
        ops.(i) <- op;
        dst.(i) <- d;
        xa.(i) <- a;
        xb.(i) <- b;
        xc.(i) <- c;
        xe.(i) <- e;
        if ra > row_mask || rr + rw > row_mask then
          failwith (Printf.sprintf "Vexec.decode: instruction %d charges too many rows" i);
        rows.(i) <- ra lor (rr lsl row_bits) lor ((rr + rw) lsl (2 * row_bits))
      in
      match ins with
      | Visa.Set (ty, d, s) ->
        set
          (if is64 ty = 1 then op_set64 else op_set32)
          ~d:(cell_off d) ~a:(src s) ~ra:0 ~rr:(src_rows ty s) ~rw:(tyrows ty) ()
      | Bin (ty, op, d, a, b) ->
        let ra = tyrows ty and rr = src_rows ty a + src_rows ty b in
        (match inline_binop ty op with
        | Some k ->
          set
            ((if is64 ty = 1 then op_bin64 else op_bin32) + k)
            ~d:(cell_off d) ~a:(src a) ~b:(src b) ~ra ~rr ~rw:(tyrows ty) ()
        | None ->
          set op_eval ~d:(cell_off d) ~a:(src a) ~b:(src b)
            ~e:(side evals (ty, op))
            ~ra ~rr ~rw:(tyrows ty) ())
      | Cmp (ty, op, d, a, b) ->
        set
          ((if is64 ty = 1 then op_cmp64 else op_cmp32) + cmp_index op)
          ~d:(cell_off d) ~a:(src a) ~b:(src b) ~ra:(tyrows ty)
          ~rr:(src_rows ty a + src_rows ty b) ~rw:1 ()
      | Select (ty, d, c, t, f) ->
        set
          (if is64 ty = 1 then op_select64 else op_select32)
          ~d:(cell_off d) ~a:(src c) ~b:(src t) ~c:(src f) ~ra:1
          ~rr:(src_rows ty t + src_rows ty f + src_rows Ty.I32 c)
          ~rw:(tyrows ty) ()
      | Cast (op, d, s) ->
        let opc, sty, dty =
          match op with
          | Instr.Trunc -> (op_low32, Ty.I64, Ty.I32)
          | Zext -> (op_low32, Ty.I32, Ty.I64)
          | Sext -> (op_sext, Ty.I32, Ty.I64)
        in
        set opc ~d:(cell_off d) ~a:(src s) ~ra:1 ~rr:(src_rows sty s)
          ~rw:(tyrows dty) ()
      | Lea (d, base, index, scale, offset) ->
        set op_lea ~d:(cell_off d) ~a:(src base) ~b:(src index) ~c:scale
          ~e:offset ~ra:1
          ~rr:(src_rows Ty.Ptr base + src_rows Ty.I32 index)
          ~rw:1 ()
      | Load (ty, d, a) ->
        set
          (if is64 ty = 1 then op_load64 else op_load32)
          ~d:(cell_off d) ~a:(src a) ~ra:0
          ~rr:(src_rows Ty.Ptr a + tyrows ty)
          ~rw:(tyrows ty) ()
      | Store (ty, a, v) ->
        set
          (if is64 ty = 1 then op_store64 else op_store32)
          ~a:(src a) ~b:(src v) ~ra:0
          ~rr:(src_rows Ty.Ptr a + src_rows ty v)
          ~rw:(tyrows ty) ()
      | Frame (d, delta) ->
        set op_frame ~d:(cell_off d) ~e:delta ~ra:1 ~rr:0 ~rw:1 ()
      | Call c ->
        let d = match c.Visa.ret with Some d -> cell_off d | None -> 0 in
        let np = List.length c.Visa.params and na = List.length c.Visa.args in
        if np <> na then
          set op_call_arity ~d ~a:c.Visa.target ~c:(is64 c.Visa.ret_ty)
            ~e:
              (side traps
                 (Printf.sprintf "%s: argument count mismatch (%d params, %d args)"
                    c.Visa.callee np na))
            ~ra:0 ~rr:0 ~rw:0 ()
        else begin
          max_args := max !max_args na;
          let run =
            List.concat
              (List.map2
                 (fun (pcell, ty) s -> [ cell_off pcell; is64 ty; src s ])
                 c.Visa.params c.Visa.args)
          in
          set op_call ~d ~a:c.Visa.target ~b:(side args (Array.of_list run))
            ~c:(is64 c.Visa.ret_ty) ~e:c.Visa.caller_frame ~ra:0
            ~rr:
              (List.fold_left2
                 (fun acc (_, ty) s -> acc + src_rows ty s)
                 0 c.Visa.params c.Visa.args)
            ~rw:
              (List.fold_left (fun acc (_, ty) -> acc + tyrows ty) 2 c.Visa.params)
            ()
        end
      | Ret r ->
        let a, rr =
          match r with Some (ty, s) -> (src s, src_rows ty s) | None -> (0, 0)
        in
        set op_ret ~a ~ra:0 ~rr:(2 + rr) ~rw:0 ()
      | Jump t -> set op_jump ~a:t ~ra:0 ~rr:0 ~rw:0 ()
      | Cjump (c, t, f) ->
        set op_cjump ~a:(src c) ~b:t ~c:f ~ra:0 ~rr:(src_rows Ty.I32 c) ~rw:0 ()
      | Prec { name; args; ret } ->
        let cost =
          Option.value ~default:(-1)
            (List.assoc_opt name cfg.Vconfig.precompile_costs)
        in
        let pr =
          {
            name;
            cost;
            pargs = Array.of_list (List.map src args);
            pret = (match ret with Some d -> cell_off d | None -> 0);
          }
        in
        set op_prec ~e:(side precs pr) ~ra:(max cost 0)
          ~rr:(List.fold_left (fun acc s -> acc + src_rows Ty.I32 s) 0 args)
          ~rw:(if ret = None then 0 else 1)
          ())
    p.Visa.code;
  let arr l = Array.of_list (List.rev l) in
  (* consecutive instructions of one block share one provenance pair *)
  let srcmap = Array.copy p.Visa.srcmap in
  for i = 1 to n - 1 do
    if srcmap.(i) = srcmap.(i - 1) then srcmap.(i) <- srcmap.(i - 1)
  done;
  {
    cfg;
    n;
    entry = p.Visa.main_entry;
    images =
      List.filter_map
        (fun (addr, (init : Modul.init)) ->
          match init with
          | Zero _ -> None (* memory reads zero by construction *)
          | Words ws ->
            (* the lowering places globals 16-aligned *)
            if Int32.logand addr 3l <> 0l then
              invalid_arg (Printf.sprintf "Vexec.decode: global at 0x%08lx is misaligned" addr);
            let b = Bytes.create (4 * Array.length ws) in
            Array.iteri (fun i w -> Bytes.set_int32_le b (4 * i) w) ws;
            Some (Memory.addr_to_int addr, b))
        p.Visa.global_inits;
    srcmap;
    ops;
    dst;
    xa;
    xb;
    xc;
    xe;
    rows;
    pool = Buffer.to_bytes pool;
    args = arr !(snd args);
    max_args = !max_args;
    evals = arr !(snd evals);
    traps = arr !(snd traps);
    precs = arr !(snd precs);
  }

(** Provenance of a synthetic pc ([4 * instruction index]). *)
let site_of_pc (c : code) (pc : int32) : (string * string) option =
  let idx = Int32.to_int pc / 4 in
  if idx < 0 || idx >= c.n then None
  else match c.srcmap.(idx) with "", _ -> None | site -> Some site

(* ------------------------------------------------------------------ *)
(* Run state                                                           *)
(* ------------------------------------------------------------------ *)

type st = {
  mem : Memory.t;
  mutable fp : int;  (* sign-extended 32-bit, as the reference's int32 *)
  mutable pc : int;
  mutable halted : bool;  (* by main's return or the silent-halt fault *)
  mutable exit : int;  (* the halting return's low word *)
  mutable seg_cpu : int;
  mutable seg_alu : int;
  mutable seg_mem : int;
  mutable tot_cpu : int;
  mutable tot_alu : int;
  mutable tot_mem : int;
  mutable segs : segment list;
  mutable reads : int;  (* writes are the segments' memory rows less these *)
  mutable precompiles : int;
  mutable faulted : bool;
  (* cached chunks, for cells and for heap words: guest bytes
     [base, base + chunk size) *)
  mutable ck_base : int;
  mutable ck : Bytes.t;
  mutable hk_base : int;
  mutable hk : Bytes.t;
  scratch : Bytes.t;  (* a call's argument values, read before any write *)
}

let u32 = 0xFFFF_FFFF
let[@inline] sext_int x = (x lsl 31) asr 31
let[@inline] norm32 x = Int64.logand x 0xFFFF_FFFFL
let[@inline] sext32 x = Int64.of_int32 (Int64.to_int32 x)

(* Unchecked little-endian access: every offset passed below is within
   its [Bytes] (a chunk offset passed the cache test, a pool offset was
   issued by [decode], a scratch offset is below [8 * max_args]). *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external big_endian : unit -> bool = "%big_endian"
external swap64 : int64 -> int64 = "%bswap_int64"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] get64_le b o = if big_endian () then swap64 (get64u b o) else get64u b o

let[@inline] set64_le b o v =
  if big_endian () then set64u b o (swap64 v) else set64u b o v

let[@inline] get32_le b o = if big_endian () then swap32 (get32u b o) else get32u b o

let[@inline] set32_le b o v =
  if big_endian () then set32u b o (swap32 v) else set32u b o v

(* An offset into a cached chunk with no bit outside these masks is an
   aligned access that stays within the chunk. *)
let cell_mask = lnot (Memory.chunk_size - 8)
let word_mask = lnot (Memory.chunk_size - 4)

let chunk_base a = a land lnot (Memory.chunk_size - 1)

let cache_cells st a =
  st.ck_base <- chunk_base a;
  st.ck <- Memory.chunk_at st.mem a

let cache_heap st a =
  st.hk_base <- chunk_base a;
  st.hk <- Memory.chunk_at st.mem a

(* Out of line: the word at [a], zero-extended, when the 8 bytes there
   are not within the cached cell chunk; re-points the cache at [a].  A
   misaligned [a] fails exactly as the reference's [Memory.load64]. *)
let get_lo st a =
  let w = Memory.get32s st.mem a in
  cache_cells st a;
  w land u32

let set_words st a lo hi =
  Memory.set32 st.mem a lo;
  Memory.set32 st.mem ((a + 4) land u32) hi;
  cache_cells st a

(* The 8-byte cell at unsigned address [a].  Both arms are unboxed
   int64 expressions, so an inlined read allocates nothing. *)
let[@inline] get64 st a =
  let o = a - st.ck_base in
  if o land cell_mask = 0 then get64_le st.ck o
  else
    let lo = get_lo st a in
    Int64.logor (Int64.of_int lo)
      (Int64.shift_left (Int64.of_int (Memory.get32s st.mem ((a + 4) land u32))) 32)

let[@inline] set64 st a v =
  let o = a - st.ck_base in
  if o land cell_mask = 0 then set64_le st.ck o v
  else
    set_words st a (Int64.to_int v) (Int64.to_int (Int64.shift_right_logical v 32))

(* Heap words, through their own cached chunk; misaligned words fail as
   the reference's [Memory.load32]/[store32]. *)
let heap_get_slow st a =
  let w = Memory.get32s st.mem a in
  cache_heap st a;
  w land u32

let heap_set_slow st a v =
  Memory.set32 st.mem a v;
  cache_heap st a

(* the word at [a], zero-extended *)
let[@inline] heap_get st a =
  let o = a - st.hk_base in
  if o land word_mask = 0 then Int32.to_int (get32_le st.hk o) land u32
  else heap_get_slow st a

(* store the low 32 bits of [v] at [a] *)
let[@inline] heap_set st a v =
  let o = a - st.hk_base in
  if o land word_mask = 0 then set32_le st.hk o (Int32.of_int v)
  else heap_set_slow st a v

(* Read operand [s] (see [code]). *)
let[@inline] rd st c s =
  if s > 0 then get64 st ((st.fp - s) land u32) else get64_le c.pool (-s - 8)

(* Write cell offset [d] of the current frame. *)
let[@inline] wr st d v = set64 st ((st.fp - d) land u32) v

(* ------------------------------------------------------------------ *)
(* The step                                                            *)
(* ------------------------------------------------------------------ *)

let[@inline] bin32 st c idx k =
  let a = rd st c (Array.unsafe_get c.xa idx) in
  let b = rd st c (Array.unsafe_get c.xb idx) in
  let v =
    match k with
    | 0 (* Add *) -> norm32 (Int64.add a b)
    | 1 (* Sub *) -> norm32 (Int64.sub a b)
    | 2 (* Mul *) -> norm32 (Int64.mul a b)
    | 3 (* And *) -> Int64.logand a b
    | 4 (* Or *) -> Int64.logor a b
    | 5 (* Xor *) -> Int64.logxor a b
    | 6 (* Shl *) -> norm32 (Int64.shift_left a (Int64.to_int b land 31))
    | 7 (* Lshr *) -> Int64.shift_right_logical a (Int64.to_int b land 31)
    | 8 (* Ashr *) -> norm32 (Int64.shift_right (sext32 a) (Int64.to_int b land 31))
    | _ (* 9 Mulhu *) -> Int64.shift_right_logical (Int64.mul a b) 32
  in
  wr st (Array.unsafe_get c.dst idx) v

let[@inline] bin64 st c idx k =
  let a = rd st c (Array.unsafe_get c.xa idx) in
  let b = rd st c (Array.unsafe_get c.xb idx) in
  let v =
    match k with
    | 0 (* Add *) -> Int64.add a b
    | 1 (* Sub *) -> Int64.sub a b
    | 2 (* Mul *) -> Int64.mul a b
    | 3 (* And *) -> Int64.logand a b
    | 4 (* Or *) -> Int64.logor a b
    | 5 (* Xor *) -> Int64.logxor a b
    | 6 (* Shl *) -> Int64.shift_left a (Int64.to_int b land 63)
    | 7 (* Lshr *) -> Int64.shift_right_logical a (Int64.to_int b land 63)
    | _ (* 8 Ashr *) -> Int64.shift_right a (Int64.to_int b land 63)
  in
  wr st (Array.unsafe_get c.dst idx) v

(* Comparisons as {!Eval.cmp}: I32 orders signed on the sign-extended
   low words and unsigned on the raw values; I64 unsigned order is the
   signed order with the top bit flipped. *)
let[@inline] cmp32 st c idx k =
  let a = rd st c (Array.unsafe_get c.xa idx) in
  let b = rd st c (Array.unsafe_get c.xb idx) in
  let t =
    match k with
    | 0 (* Eq *) -> a = b
    | 1 (* Ne *) -> a <> b
    | 2 (* Slt *) -> sext32 a < sext32 b
    | 3 (* Sle *) -> sext32 a <= sext32 b
    | 4 (* Sgt *) -> sext32 a > sext32 b
    | 5 (* Sge *) -> sext32 a >= sext32 b
    | 6 (* Ult *) -> a < b
    | 7 (* Ule *) -> a <= b
    | 8 (* Ugt *) -> a > b
    | _ (* 9 Uge *) -> a >= b
  in
  wr st (Array.unsafe_get c.dst idx) (if t then 1L else 0L)

let[@inline] cmp64 st c idx k =
  let a = rd st c (Array.unsafe_get c.xa idx) in
  let b = rd st c (Array.unsafe_get c.xb idx) in
  let t =
    match k with
    | 0 (* Eq *) -> a = b
    | 1 (* Ne *) -> a <> b
    | 2 (* Slt *) -> a < b
    | 3 (* Sle *) -> a <= b
    | 4 (* Sgt *) -> a > b
    | 5 (* Sge *) -> a >= b
    | _ ->
      let ua = Int64.logxor a Int64.min_int and ub = Int64.logxor b Int64.min_int in
      (match k with
      | 6 (* Ult *) -> ua < ub
      | 7 (* Ule *) -> ua <= ub
      | 8 (* Ugt *) -> ua > ub
      | _ (* 9 Uge *) -> ua >= ub)
  in
  wr st (Array.unsafe_get c.dst idx) (if t then 1L else 0L)

(* Memory-mediated call: the argument values are read in the caller's
   frame before any write, then the callee's frame gets the return pc,
   the caller's fp and the parameters, in the reference's order. *)
let call st c idx =
  let params = Array.unsafe_get c.args (Array.unsafe_get c.xb idx) in
  let np = Array.length params / 3 in
  for j = 0 to np - 1 do
    set64_le st.scratch (8 * j) (rd st c (Array.unsafe_get params ((3 * j) + 2)))
  done;
  let fp = st.fp in
  let new_fp = sext_int (fp - Array.unsafe_get c.xe idx) in
  set64 st ((new_fp - 8) land u32) (Int64.of_int (idx + 1));
  set64 st ((new_fp - 16) land u32) (Int64.of_int fp);
  for j = 0 to np - 1 do
    let v = get64_le st.scratch (8 * j) in
    set64 st
      ((new_fp - Array.unsafe_get params (3 * j)) land u32)
      (if Array.unsafe_get params ((3 * j) + 1) = 1 then v else norm32 v)
  done;
  st.fp <- new_fp;
  st.pc <- Array.unsafe_get c.xa idx

let ret st c idx =
  let fp = st.fp in
  let saved_pc = Int64.to_int (get64 st ((fp - 8) land u32)) in
  let saved_fp = sext_int (Int64.to_int (get64 st ((fp - 16) land u32))) in
  let s = Array.unsafe_get c.xa idx in
  let v = if s <> 0 then rd st c s else 0L in
  if saved_pc < 0 then begin
    (* main's sentinel frame: halt, journal the i32 checksum *)
    st.halted <- true;
    st.exit <- Int64.to_int (norm32 v)
  end
  else begin
    let site = saved_pc - 1 in
    if
      saved_pc = 0 || saved_pc > c.n
      || (let op = Array.unsafe_get c.ops site in
          op <> op_call && op <> op_call_arity)
    then trap "return to non-call site %d" saved_pc;
    let d = Array.unsafe_get c.dst site in
    if d <> 0 then begin
      if s = 0 then trap "returned no value to a binding call at %d" site;
      let w = if Array.unsafe_get c.xc site = 1 then 2 else 1 in
      st.seg_mem <- st.seg_mem + w;
      set64 st ((saved_fp - d) land u32) (if w = 2 then v else norm32 v)
    end;
    st.fp <- saved_fp;
    st.pc <- saved_pc
  end

(* Out of line and boxed: precompiles are rare and do their own
   memory traffic, charged to the memory chip per word. *)
let precompile st c idx =
  let p = Array.unsafe_get c.precs (Array.unsafe_get c.xe idx) in
  st.precompiles <- st.precompiles + 1;
  if p.cost < 0 then ignore (Vconfig.precompile_cost c.cfg p.name);
  let argv = Array.map (fun s -> rd st c s) p.pargs in
  let emem =
    {
      Extern.load32 =
        (fun a ->
          st.seg_mem <- st.seg_mem + 1;
          st.reads <- st.reads + 1;
          Memory.load32 st.mem a);
      store32 =
        (fun a v ->
          st.seg_mem <- st.seg_mem + 1;
          Memory.store32 st.mem a v);
    }
  in
  (match Extern.run p.name emem argv with
  | Some v when p.pret <> 0 -> wr st p.pret (norm32 v)
  | None when p.pret <> 0 ->
    trap "precompile %s returned no value to a binding call" p.name
  | _ -> ());
  st.pc <- idx + 1

(* One instruction: charge its static rows, then execute it.  Inlined
   into both loops. *)
let[@inline] step st c idx =
  if idx < 0 || idx >= c.n then trap "pc %d out of code range" idx;
  let r = Array.unsafe_get c.rows idx in
  st.seg_cpu <- st.seg_cpu + 1;
  st.seg_alu <- st.seg_alu + (r land row_mask);
  st.reads <- st.reads + ((r lsr row_bits) land row_mask);
  st.seg_mem <- st.seg_mem + (r lsr (2 * row_bits));
  let next = idx + 1 in
  match Array.unsafe_get c.ops idx with
  | 0 (* set32 *) ->
    wr st (Array.unsafe_get c.dst idx) (norm32 (rd st c (Array.unsafe_get c.xa idx)));
    st.pc <- next
  | 1 (* set64 *) ->
    wr st (Array.unsafe_get c.dst idx) (rd st c (Array.unsafe_get c.xa idx));
    st.pc <- next
  | (2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 | 10 | 11) as op ->
    bin32 st c idx (op - op_bin32);
    st.pc <- next
  | (12 | 13 | 14 | 15 | 16 | 17 | 18 | 19 | 20) as op ->
    bin64 st c idx (op - op_bin64);
    st.pc <- next
  | (21 | 22 | 23 | 24 | 25 | 26 | 27 | 28 | 29 | 30) as op ->
    cmp32 st c idx (op - op_cmp32);
    st.pc <- next
  | (31 | 32 | 33 | 34 | 35 | 36 | 37 | 38 | 39 | 40) as op ->
    cmp64 st c idx (op - op_cmp64);
    st.pc <- next
  | 41 (* eval *) ->
    let a = rd st c (Array.unsafe_get c.xa idx) in
    let b = rd st c (Array.unsafe_get c.xb idx) in
    let ty, op = Array.unsafe_get c.evals (Array.unsafe_get c.xe idx) in
    wr st (Array.unsafe_get c.dst idx) (Eval.binop ty op a b);
    st.pc <- next
  | (42 | 43) as op (* select *) ->
    (* both arms are read (a circuit constrains both); selection is pure *)
    let t = rd st c (Array.unsafe_get c.xb idx) in
    let f = rd st c (Array.unsafe_get c.xc idx) in
    let v = if rd st c (Array.unsafe_get c.xa idx) <> 0L then t else f in
    wr st (Array.unsafe_get c.dst idx) (if op = op_select64 then v else norm32 v);
    st.pc <- next
  | 44 (* trunc, zext *) ->
    wr st (Array.unsafe_get c.dst idx) (norm32 (rd st c (Array.unsafe_get c.xa idx)));
    st.pc <- next
  | 45 (* sext *) ->
    wr st (Array.unsafe_get c.dst idx) (sext32 (rd st c (Array.unsafe_get c.xa idx)));
    st.pc <- next
  | 46 (* lea *) ->
    let base = rd st c (Array.unsafe_get c.xa idx) in
    let index = rd st c (Array.unsafe_get c.xb idx) in
    wr st (Array.unsafe_get c.dst idx)
      (norm32
         (Int64.add base
            (Int64.add
               (Int64.mul index (Int64.of_int (Array.unsafe_get c.xc idx)))
               (Int64.of_int (Array.unsafe_get c.xe idx)))));
    st.pc <- next
  | 47 (* load32 *) ->
    let a = Int64.to_int (rd st c (Array.unsafe_get c.xa idx)) land u32 in
    wr st (Array.unsafe_get c.dst idx) (Int64.of_int (heap_get st a));
    st.pc <- next
  | 48 (* load64 *) ->
    let a = Int64.to_int (rd st c (Array.unsafe_get c.xa idx)) land u32 in
    let lo = heap_get st a in
    let hi = heap_get st ((a + 4) land u32) in
    wr st (Array.unsafe_get c.dst idx)
      (Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32));
    st.pc <- next
  | 49 (* store32 *) ->
    let a = Int64.to_int (rd st c (Array.unsafe_get c.xa idx)) land u32 in
    heap_set st a (Int64.to_int (rd st c (Array.unsafe_get c.xb idx)));
    st.pc <- next
  | 50 (* store64 *) ->
    let a = Int64.to_int (rd st c (Array.unsafe_get c.xa idx)) land u32 in
    let v = rd st c (Array.unsafe_get c.xb idx) in
    heap_set st a (Int64.to_int v);
    heap_set st ((a + 4) land u32) (Int64.to_int (Int64.shift_right_logical v 32));
    st.pc <- next
  | 51 (* frame *) ->
    wr st (Array.unsafe_get c.dst idx)
      (Int64.of_int ((st.fp - Array.unsafe_get c.xe idx) land u32));
    st.pc <- next
  | 52 (* call *) -> call st c idx
  | 53 (* call, arity mismatch *) ->
    raise (Emulator.Trap (Array.unsafe_get c.traps (Array.unsafe_get c.xe idx)))
  | 54 (* ret *) -> ret st c idx
  | 55 (* jump *) -> st.pc <- Array.unsafe_get c.xa idx
  | 56 (* cjump *) ->
    st.pc <-
      (if rd st c (Array.unsafe_get c.xa idx) <> 0L then Array.unsafe_get c.xb idx
       else Array.unsafe_get c.xc idx)
  | _ (* 57 prec *) -> precompile st c idx

(* ------------------------------------------------------------------ *)
(* Segments and the run loops                                          *)
(* ------------------------------------------------------------------ *)

let close_segment st ~fault ~final ~at_pc (sink : Machine.sink option) =
  let seg = { cpu_rows = st.seg_cpu; alu_rows = st.seg_alu; mem_rows = st.seg_mem } in
  st.segs <- seg :: st.segs;
  (match sink with
  | Some s ->
    (* one segment event carrying all tables' rows; no paging dimension *)
    s.Machine.on_segment ~pc:at_pc ~user:(segment_rows seg) ~paging:0
  | None -> ());
  let cpu, alu, mem =
    match fault with
    | Machine.Truncated_final_segment when final && segment_rows seg > 1 ->
      st.faulted <- true;
      (seg.cpu_rows / 2, seg.alu_rows / 2, seg.mem_rows / 2)
    | Machine.Dropped_page_out when seg.mem_rows > 1 ->
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

(* Synthetic pc for provenance/attribution: 4 bytes per instruction. *)
let pc32 idx = Int32.of_int (4 * idx)

(* Shadow RV32 instruction reported to attribution sinks, chosen so the
   profiler's shared shadow-call-stack and mem-op classification logic
   (lib/prof/collect.ml) behaves identically on this backend: calls look
   like [jal ra], returns like [jalr zero, ra], heap traffic like
   loads/stores. *)
let shadow c idx : Isa.t =
  match Array.unsafe_get c.ops idx with
  | 52 | 53 (* call *) -> Isa.Jal (Isa.ra, 4 * (Array.unsafe_get c.xa idx - idx))
  | 54 (* ret *) -> Isa.Jalr (0, Isa.ra, 0)
  | 47 | 48 (* load *) -> Isa.Load (Isa.LW, 0, 0, 0)
  | 49 | 50 (* store *) -> Isa.Store (Isa.SW, 0, 0, 0)
  | 55 (* jump *) -> Isa.Jal (0, 4 * (Array.unsafe_get c.xa idx - idx))
  | 56 (* cjump *) -> Isa.Branch (Isa.BEQ, 0, 0, 0)
  | 57 (* prec *) -> Isa.Ecall
  | _ -> Isa.Opi (Isa.ADDI, 0, 0, 0)

(* After the instruction at [idx]: close the segment if a table is full. *)
let[@inline] boundary st c ~fault ~limit sink idx =
  if
    (not st.halted)
    && (st.seg_cpu >= limit || st.seg_alu >= limit || st.seg_mem >= limit)
  then begin
    close_segment st ~fault ~final:false ~at_pc:(pc32 idx) sink;
    if fault = Machine.Silent_halt_on_boundary_jalr
       && Array.unsafe_get c.ops idx = op_ret
    then begin
      (* the continuation boundary landed on a return: the buggy
         executor stops mid-run yet reports a verifying trace *)
      st.faulted <- true;
      st.halted <- true
    end
  end

let loop st c ~fault fuel =
  let limit = c.cfg.Vconfig.table_limit in
  let budget = ref fuel in
  while not st.halted do
    if !budget <= 0 then raise (Emulator.Out_of_fuel fuel);
    decr budget;
    let idx = st.pc in
    step st c idx;
    boundary st c ~fault ~limit None idx
  done

(* The same loop reporting each retire, its precompile and each segment
   in the reference's order.  A retire's cost is the rows it added to
   the open segment. *)
let loop_sinked st c (s : Machine.sink) ~fault fuel =
  let limit = c.cfg.Vconfig.table_limit in
  let budget = ref fuel in
  while not st.halted do
    if !budget <= 0 then raise (Emulator.Out_of_fuel fuel);
    decr budget;
    let idx = st.pc in
    let before = st.seg_cpu + st.seg_alu + st.seg_mem in
    step st c idx;
    let total = st.seg_cpu + st.seg_alu + st.seg_mem - before in
    let pc = pc32 idx in
    let ins = shadow c idx in
    if Array.unsafe_get c.ops idx = op_prec then begin
      let p = c.precs.(c.xe.(idx)) in
      s.Machine.on_retires (Machine.retire1 ~pc ins ~cost:(total - p.cost));
      s.Machine.on_precompile ~pc ~name:p.name ~cost:p.cost
    end
    else s.Machine.on_retires (Machine.retire1 ~pc ins ~cost:total);
    boundary st c ~fault ~limit (Some s) idx
  done

(** Execute decoded [c].  The sink and the fault are selected here,
    once: without a sink the loop makes no per-instruction indirect
    call; with one, every retire, precompile and segment is reported
    with its synthetic pc (see {!shadow}); [fault] injects the
    cross-backend bug family. *)
let run ?(fault = Machine.No_fault) ?(fuel = Emulator.default_fuel) ?sink
    (c : code) : result =
  let st =
    {
      mem = Memory.create ();
      fp = Int32.to_int Layout.stack_top;
      pc = c.entry;
      halted = false;
      exit = 0;
      seg_cpu = 0;
      seg_alu = 0;
      seg_mem = 0;
      tot_cpu = 0;
      tot_alu = 0;
      tot_mem = 0;
      segs = [];
      reads = 0;
      precompiles = 0;
      faulted = false;
      ck_base = 0;
      ck = Bytes.empty;
      hk_base = 0;
      hk = Bytes.empty;
      scratch = Bytes.create (8 * c.max_args);
    }
  in
  cache_cells st ((st.fp - 8) land u32);
  cache_heap st ((st.fp - 8) land u32);
  List.iter (fun (addr, b) -> Memory.store_image st.mem addr b) c.images;
  (* main's frame: sentinel saved pc halts on its Ret *)
  set64 st ((st.fp - 8) land u32) (-1L);
  set64 st ((st.fp - 16) land u32) (Int64.of_int st.fp);
  (match sink with
  | None -> loop st c ~fault fuel
  | Some s -> loop_sinked st c s ~fault fuel);
  close_segment st ~fault ~final:true ~at_pc:(pc32 st.pc) sink;
  let exit_value =
    match fault with
    | Machine.Corrupt_exit_value ->
      st.faulted <- true;
      Int64.logxor (Int64.of_int st.exit) 0x5A5A_5A5AL
    | _ -> Int64.of_int st.exit
  in
  {
    exit_value;
    total_rows = st.tot_cpu + st.tot_alu + st.tot_mem;
    cpu_rows = st.tot_cpu;
    alu_rows = st.tot_alu;
    mem_rows = st.tot_mem;
    segments = List.rev st.segs;
    retired = List.fold_left (fun n (s : segment) -> n + s.cpu_rows) 0 st.segs;
    mem_read_rows = st.reads;
    mem_write_rows =
      List.fold_left (fun n (s : segment) -> n + s.mem_rows) 0 st.segs - st.reads;
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
