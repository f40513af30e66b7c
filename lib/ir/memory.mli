(** Byte-addressed guest memory over a direct-mapped page directory.

    Addresses are a 4 GiB unsigned space; storage is 4 KiB [Bytes]
    chunks behind a two-level directory with a one-entry last-chunk
    cache.  The representation is private: callers see two access APIs
    over the same storage, and the chunks themselves through
    {!chunk_at}.

    This module is purely functional storage — cost accounting (zkVM
    paging, CPU caches) is layered on top by observers. *)

type t

val create : unit -> t

(** Interpret an [int32] address as unsigned. *)
val addr_to_int : int32 -> int

(** {1 int32-addressed API}

    The historical interface, used by the IR interpreter, the reference
    emulators and the precompiles.  Word accesses must be 4-aligned and
    fail with ["Memory: misaligned word access at ..."] otherwise.
    Loads of untouched memory read zero. *)

val load8 : t -> int32 -> int
val store8 : t -> int32 -> int -> unit
val load32 : t -> int32 -> int32
val store32 : t -> int32 -> int32 -> unit
val load64 : t -> int32 -> int64
val store64 : t -> int32 -> int64 -> unit

(** Load/store a value of IR type [ty] under the canonical int64
    encoding ([I32]/[Ptr] zero-extended in the low 32 bits). *)
val load_ty : t -> Ty.t -> int32 -> int64

val store_ty : t -> Ty.t -> int32 -> int64 -> unit

(** Copy an initialized global image into memory ([Zero] is free —
    memory reads zero by construction). *)
val init_global : t -> int32 -> Modul.init -> unit

(** {1 Unsigned-int API}

    The decoded machines' access path: addresses are unsigned
    native ints, no [Int32] is allocated anywhere, and word loads come
    back sign-extended (the machine's register normal form).  Alignment
    failures raise the same exception as the int32 API. *)

(** Byte load at unsigned address. *)
val get8 : t -> int -> int

(** Byte store (low 8 bits of the value) at unsigned address. *)
val set8 : t -> int -> int -> unit

(** Aligned word load, sign-extended to a native int. *)
val get32s : t -> int -> int

(** Aligned word store of the low 32 bits of a native int. *)
val set32 : t -> int -> int -> unit

(** [store_image t base img] blits a pre-assembled little-endian image
    into memory at aligned unsigned address [base]. *)
val store_image : t -> int -> Bytes.t -> unit

(** {1 Chunk access}

    The Valida frame machine's path to its 8-byte cells.  Its values are
    [int64]; a call that returns one boxes it, so the machine caches a
    chunk and reads and writes its words itself, unboxed. *)

(** Bytes per chunk (4096); chunks start at multiples of it. *)
val chunk_size : int

(** [chunk_at t a] is the live chunk holding unsigned address [a],
    allocated on first touch: byte [a land (chunk_size - 1)] of it is
    guest byte [a].  Writes through it and through either API above are
    one storage. *)
val chunk_at : t -> int -> Bytes.t
