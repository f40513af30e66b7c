(** Structural content addressing: the repo's two key kinds.

    {!of_modul} addresses a module in hand: a digest of the
    *post-pipeline* IR module.  The compile cache's second level keys
    artifacts on it plus a codegen-family tag: two sweep cells whose
    pass pipelines produce structurally identical modules (a very common
    case — most single-pass profiles leave most programs untouched)
    share one compiled program.

    {!of_pipeline} addresses a module by its inputs, before it exists: a
    salt naming the unoptimized module plus a pass list.  The compile
    cache's first level (the harness's input key) and the autotuner's
    prefix cache key on it.

    The module digest is structural, not physical: it covers globals
    (name, initializer bytes), function signatures, attributes, block
    labels, instructions and terminators — everything the code generator
    consumes — and nothing else.  In particular [Func.next_reg] (the
    fresh-register high-water mark) is excluded, and a {!Zkopt_ir.Clone}d
    module digests identically to its original because cloning preserves
    names, labels and register numbering. *)

open Zkopt_ir

(** Tag of the canonical IR encoding below, hashed into every digest.
    It names the encoding, not a disk namespace: the on-disk store is
    namespaced by the build identity ({!Cache.namespace}), which changes
    with any library source. *)
let schema = "zkopt-exec-v2"

let add_global buf (g : Modul.global) =
  Buffer.add_string buf "g ";
  Buffer.add_string buf g.Modul.gname;
  (match g.Modul.init with
  | Modul.Zero n ->
    Buffer.add_string buf " zero ";
    Printer.add_int buf n
  | Modul.Words ws ->
    Buffer.add_string buf " words";
    Array.iter
      (fun w ->
        Buffer.add_char buf ' ';
        Printer.add_hex32 buf w)
      ws);
  Buffer.add_char buf '\n'

let add_bool buf b =
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_bool b)

let add_func buf (f : Func.t) =
  (* Printer.add_func covers name, params, return type, block labels,
     instructions and terminators in a deterministic rendering; function
     attributes are not printed, so append them explicitly — they can
     steer late pipeline stages and must not collide. *)
  Printer.add_func buf f;
  let a = f.Func.attrs in
  Buffer.add_string buf "attrs";
  add_bool buf a.Func.always_inline;
  add_bool buf a.Func.no_inline;
  add_bool buf a.Func.internal;
  Buffer.add_char buf '\n'

(* Each domain encodes into one buffer it keeps, and digests the
   encoding from bytes it keeps: an encoding outgrows the 256 words of a
   minor-heap block, so a fresh buffer or a fresh copy of it per call is
   allocated straight on the major heap. *)
type scratch = { buf : Buffer.t; mutable bytes : Bytes.t }

let scratch =
  Domain.DLS.new_key (fun () -> { buf = Buffer.create 65536; bytes = Bytes.empty })

(* [m]'s encoding, in this domain's buffer *)
let fill (m : Modul.t) : scratch =
  let s = Domain.DLS.get scratch in
  let buf = s.buf in
  Buffer.clear buf;
  Buffer.add_string buf schema;
  Buffer.add_char buf '\n';
  List.iter (add_global buf) m.Modul.globals;
  List.iter (add_func buf) m.Modul.funcs;
  s

(** Canonical byte encoding of everything codegen-relevant in [m]. *)
let encode (m : Modul.t) : string = Buffer.contents (fill m).buf

(** Hex digest of a module's canonical encoding. *)
let of_modul (m : Modul.t) : string =
  let s = fill m in
  let n = Buffer.length s.buf in
  if Bytes.length s.bytes < n then s.bytes <- Bytes.create (2 * n);
  Buffer.blit s.buf 0 s.bytes 0 n;
  Digest.to_hex (Digest.subbytes s.bytes 0 n)

(** Hex digest of a pass-name pipeline under a salt.  The salt must
    identify everything else the resulting module depends on: the
    unoptimized module and the pass configuration.  The module produced
    by building it and running [passes] in order is then fully
    determined by the pair, so it can be looked up without ever being
    materialized.  The harness's input key salts with the program, size
    and [Pass.config]; the autotuner's prefix key salts
    with the digest of the linked, unoptimized module.  Contrast with
    {!of_modul}, which addresses a module that is already in hand. *)
let of_pipeline ~(salt : string) (passes : string list) : string =
  Digest.to_hex (Digest.string (String.concat "\x00" (schema :: salt :: passes)))
