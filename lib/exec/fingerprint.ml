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
    Buffer.add_string buf (string_of_int n)
  | Modul.Words ws ->
    Buffer.add_string buf " words";
    Array.iter
      (fun w ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (Printf.sprintf "%lx" w))
      ws);
  Buffer.add_char buf '\n'

let add_func buf (f : Func.t) =
  (* Printer.func covers name, params, return type, block labels,
     instructions and terminators in a deterministic rendering; function
     attributes are not printed, so append them explicitly — they can
     steer late pipeline stages and must not collide. *)
  Buffer.add_string buf (Printer.func f);
  let a = f.Func.attrs in
  Buffer.add_string buf
    (Printf.sprintf "attrs %b %b %b\n" a.Func.always_inline a.Func.no_inline
       a.Func.internal)

(** Canonical byte encoding of everything codegen-relevant in [m]. *)
let encode (m : Modul.t) : string =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf schema;
  Buffer.add_char buf '\n';
  List.iter (add_global buf) m.Modul.globals;
  List.iter (add_func buf) m.Modul.funcs;
  Buffer.contents buf

(** Hex digest of a module's canonical encoding. *)
let of_modul (m : Modul.t) : string = Digest.to_hex (Digest.string (encode m))

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
