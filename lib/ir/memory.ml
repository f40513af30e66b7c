(** Byte-addressed guest memory over a direct-mapped page directory.

    The 4 GiB guest address space is split into 4 KiB chunks addressed
    through a two-level directory (1024 x 1024 flat [Bytes] chunks,
    allocated on first touch) — a pointer chase and two masked indexes
    instead of the hash probe the original [Hashtbl] backing paid on
    every access.  The most recently touched chunk is cached so loops
    that stay within one chunk (almost all of them) resolve in a single
    compare.

    Two address APIs coexist:
    - the original [int32] API ([load8]/[store8]/[load32]/... ), kept
      verbatim for the IR interpreter and the reference emulators;
    - an unsigned-[int] API ([get8]/[set8]/[get32s]/[set32]) for the
      decoded machines ({!Zkopt_zkvm.Machine}, {!Zkopt_valida.Vexec}):
      no [Int32] boxing anywhere on the access path, loads returned
      sign-extended so the caller's register file can stay in untagged
      native ints.

    The Valida frame machine also takes whole chunks ([chunk_at]) and
    reads and writes its [int64] cells in them unboxed.

    This module is purely functional storage — cost accounting (zkVM
    paging, CPU caches) is layered on top by observers. *)

type t = {
  dir : Bytes.t array array;  (* dir.(hi).(lo) = 4 KiB chunk *)
  mutable last_idx : int;     (* chunk number of [last], -1 = none *)
  mutable last : Bytes.t;
}

let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits
let l2_bits = 10 (* chunks per directory row *)
let l2_size = 1 lsl l2_bits
let top_size = 1 lsl (32 - chunk_bits - l2_bits)

(* Shared sentinels: a missing row / chunk is physical equality with
   these, so empty directories cost one word per top slot. *)
let no_row : Bytes.t array = [||]
let no_chunk = Bytes.create 0

let create () =
  { dir = Array.make top_size no_row; last_idx = -1; last = no_chunk }

let addr_to_int (a : int32) = Int32.to_int a land 0xFFFF_FFFF

(* Resolve (and allocate) the chunk holding chunk-number [n], refreshing
   the one-entry cache.  Out-of-line so the [chunk] fast path inlines. *)
let chunk_slow t n =
  let hi = n lsr l2_bits in
  let row =
    let r = Array.unsafe_get t.dir hi in
    if r != no_row then r
    else begin
      let r = Array.make l2_size no_chunk in
      Array.unsafe_set t.dir hi r;
      r
    end
  in
  let lo = n land (l2_size - 1) in
  let c = Array.unsafe_get row lo in
  let c =
    if c != no_chunk then c
    else begin
      let c = Bytes.make chunk_size '\000' in
      Array.unsafe_set row lo c;
      c
    end
  in
  t.last_idx <- n;
  t.last <- c;
  c

let[@inline] chunk t n = if n = t.last_idx then t.last else chunk_slow t n

let chunk_at t a = chunk t (a lsr chunk_bits)

(* ------------------------------------------------------------------ *)
(* Unsigned-int access path (no Int32 on the way)                      *)
(* ------------------------------------------------------------------ *)

let misaligned a =
  failwith
    (Printf.sprintf "Memory: misaligned word access at 0x%08lx"
       (Int32.of_int a))

(** [get8 t a] reads the byte at unsigned address [a]. *)
let[@inline] get8 t a =
  let c = chunk t (a lsr chunk_bits) in
  Char.code (Bytes.unsafe_get c (a land (chunk_size - 1)))

(** [set8 t a v] writes the low byte of [v] at unsigned address [a]. *)
let[@inline] set8 t a v =
  let c = chunk t (a lsr chunk_bits) in
  Bytes.unsafe_set c (a land (chunk_size - 1)) (Char.unsafe_chr (v land 0xff))

(** [get32s t a] reads the aligned word at unsigned address [a],
    sign-extended to a native int (the decoded machine's register
    normal form). *)
let[@inline] get32s t a =
  if a land 3 <> 0 then misaligned a;
  let c = chunk t (a lsr chunk_bits) in
  let o = a land (chunk_size - 1) in
  let b0 = Char.code (Bytes.unsafe_get c o)
  and b1 = Char.code (Bytes.unsafe_get c (o + 1))
  and b2 = Char.code (Bytes.unsafe_get c (o + 2))
  and b3 = Char.code (Bytes.unsafe_get c (o + 3)) in
  let v = b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24) in
  (v lsl 31) asr 31

(** [set32 t a v] writes the low 32 bits of [v] at aligned unsigned
    address [a]. *)
let[@inline] set32 t a v =
  if a land 3 <> 0 then misaligned a;
  let c = chunk t (a lsr chunk_bits) in
  let o = a land (chunk_size - 1) in
  Bytes.unsafe_set c o (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set c (o + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set c (o + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set c (o + 3) (Char.unsafe_chr ((v lsr 24) land 0xff))

(** [store_image t base img] copies a pre-assembled image into memory
    starting at aligned unsigned address [base], chunk-blit at a time
    (the decoded machine installs the code image this way once per
    run). *)
let store_image t base img =
  let len = Bytes.length img in
  let pos = ref 0 in
  while !pos < len do
    let a = base + !pos in
    let c = chunk t (a lsr chunk_bits) in
    let o = a land (chunk_size - 1) in
    let n = min (chunk_size - o) (len - !pos) in
    Bytes.blit img !pos c o n;
    pos := !pos + n
  done

(* ------------------------------------------------------------------ *)
(* int32 API (unchanged semantics)                                     *)
(* ------------------------------------------------------------------ *)

let load8 t addr = get8 t (addr_to_int addr)
let store8 t addr v = set8 t (addr_to_int addr) v

(* Word accesses must be 4-aligned; the fast path stays within one chunk. *)
let check_aligned addr =
  if Int32.to_int addr land 3 <> 0 then
    failwith (Printf.sprintf "Memory: misaligned word access at 0x%08lx" addr)

let load32 t addr =
  check_aligned addr;
  let a = addr_to_int addr in
  let c = chunk t (a lsr chunk_bits) in
  Bytes.get_int32_le c (a land (chunk_size - 1))

let store32 t addr (v : int32) =
  check_aligned addr;
  let a = addr_to_int addr in
  let c = chunk t (a lsr chunk_bits) in
  Bytes.set_int32_le c (a land (chunk_size - 1)) v

(* 64-bit accesses as two word accesses, little-endian. *)
let load64 t addr =
  let lo = Int64.logand (Int64.of_int32 (load32 t addr)) 0xFFFF_FFFFL in
  let hi = Int64.of_int32 (load32 t (Int32.add addr 4l)) in
  Int64.logor lo (Int64.shift_left hi 32)

let store64 t addr (v : int64) =
  store32 t addr (Int64.to_int32 v);
  store32 t (Int32.add addr 4l) (Int64.to_int32 (Int64.shift_right_logical v 32))

(** Load/store value of IR type [ty] under the canonical int64 encoding. *)
let load_ty t (ty : Ty.t) addr =
  match ty with
  | Ty.I32 | Ptr -> Eval.norm32 (Int64.of_int32 (load32 t addr))
  | I64 -> load64 t addr

let store_ty t (ty : Ty.t) addr (v : int64) =
  match ty with
  | Ty.I32 | Ptr -> store32 t addr (Int64.to_int32 v)
  | I64 -> store64 t addr v

(** Copy an initialized global image into memory. *)
let init_global t addr (init : Modul.init) =
  match init with
  | Modul.Zero _ -> () (* memory is zero by construction *)
  | Words ws ->
    Array.iteri (fun i w -> store32 t (Int32.add addr (Int32.of_int (4 * i))) w) ws
