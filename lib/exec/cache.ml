(** Content-addressed compile cache with a key on inputs in front.

    The cache has two levels.  The first maps a cell's {e inputs} (an
    input key: program, size, pass configuration and pass list, built
    by the caller with {!Fingerprint.of_pipeline}) to the
    {!Fingerprint.of_modul} digest of the module those inputs produce
    ({!resolve}, {!record}).  The second maps that digest, suffixed by
    the owning backend's codegen-schema tag, to the compiled artifact
    ({!get_or_compile}).  A caller that resolves a cell's inputs needs
    the module only when the artifact must really be compiled, so a
    warm cache runs no pass pipeline.  The second level keeps the dedup
    of identical modules: backends that share a codegen path share one
    artifact within a cell, and profiles that leave a program untouched
    share the baseline's artifact across cells.

    The cache is polymorphic in the artifact type.  Backend artifacts
    hold closures (execution captures the program image) and closures
    cannot be [Marshal]ed, so the disk half works through a per-call
    {!codec}: [enc] serializes the pure data inside the artifact
    ([None] = memory-only), [dec] rebinds closures around deserialized
    bytes.  An encoded artifact is self-contained: decoding it needs
    nothing but its bytes.

    Safe for concurrent use from many domains.  A single mutex guards
    the tables; compiles run outside the lock, and an in-flight set gives
    single-flight semantics — when several workers want the same digest
    at once, one compiles and the rest block on a condition variable and
    pick up the result as a hit.  Sharing is sound because compilation
    is deterministic and cached artifacts are immutable after assembly.

    The optional on-disk store lives under [dir/<build id>/], where the
    build id ({!namespace}) is a digest of the library sources computed
    at build time, so a store written by any other build is never read.
    Artifacts are files [dir/<build id>/<digest>], written through a
    temp file + rename, which makes concurrent writers and readers of
    the same digest safe (both produce identical bytes).  The first
    level is one append-only {!Rowlog} per namespace,
    [dir/<build id>/inputs.log]: each row holds an input key, a module
    digest and a check digest over both, rows that fail the check are
    skipped, and a later row for a key overrides an earlier one.  The
    log is read on the first {!resolve}, not by {!create}, and opened
    for appending on the first {!record}; opening cuts a torn last row,
    so two processes sharing a store can lose a row to each other, which
    costs a first-level miss and never a wrong digest.  The first level
    is not bounded: an entry is two digests per distinct cell. *)

type 'a codec = {
  enc : 'a -> string option;  (** [None] = this artifact is memory-only *)
  dec : string -> 'a option;  (** [None] = stale/corrupt bytes: a miss *)
}

(** A codec for artifacts that are pure data (no closures). *)
let marshal_codec () =
  {
    enc = (fun a -> Some (Marshal.to_string a []));
    dec = (fun s -> try Some (Marshal.from_string s 0) with _ -> None);
  }

type stats = {
  hits : int;  (** served from memory (includes single-flight waiters) *)
  disk_hits : int;  (** deserialized from the on-disk store *)
  misses : int;  (** actual compiles performed *)
  evictions : int;  (** LRU entries dropped to respect [capacity] *)
}

let zero_stats = { hits = 0; disk_hits = 0; misses = 0; evictions = 0 }

let sub_stats a b =
  {
    hits = a.hits - b.hits;
    disk_hits = a.disk_hits - b.disk_hits;
    misses = a.misses - b.misses;
    evictions = a.evictions - b.evictions;
  }

(** Fraction (in %) of lookups that did not compile. *)
let hit_rate_pct s =
  let total = s.hits + s.disk_hits + s.misses in
  if total = 0 then 100.0
  else 100.0 *. float_of_int (s.hits + s.disk_hits) /. float_of_int total

type 'a entry = { art : 'a; mutable last_use : int }

type 'a t = {
  mu : Mutex.t;
  ready : Condition.t;  (** an in-flight compile completed *)
  capacity : int;  (** max in-memory entries; <= 0 = unbounded *)
  table : (string, 'a entry) Hashtbl.t;
  inflight : (string, unit) Hashtbl.t;
  dir : string option;
  inputs : (string, string) Hashtbl.t;  (** input key -> module digest *)
  mutable inputs_loaded : bool;  (** the disk log has been read *)
  inputs_log : Rowlog.t option ref;
      (** opened on the first record, closed once the cache is collected *)
  mutable tick : int;
  mutable hits : int;
  mutable disk_hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(capacity = 512) ?dir () : _ t =
  let inputs_log = ref None in
  let t =
    {
      mu = Mutex.create ();
      ready = Condition.create ();
      capacity;
      table = Hashtbl.create 256;
      inflight = Hashtbl.create 16;
      dir;
      inputs = Hashtbl.create 256;
      inputs_loaded = false;
      inputs_log;
      tick = 0;
      hits = 0;
      disk_hits = 0;
      misses = 0;
      evictions = 0;
    }
  in
  (* [finalise_last] does not keep the cache alive past its last use,
     so the log is closed without holding on to the artifacts *)
  Gc.finalise_last (fun () -> Option.iter Rowlog.close !inputs_log) t;
  t

(** Entries currently resident in memory (the service status surface
    reports this next to the hit/miss/evict counters). *)
let resident t : int =
  Mutex.lock t.mu;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.mu;
  n

let stats t : stats =
  Mutex.lock t.mu;
  let s =
    {
      hits = t.hits;
      disk_hits = t.disk_hits;
      misses = t.misses;
      evictions = t.evictions;
    }
  in
  Mutex.unlock t.mu;
  s

(* ---- on-disk store -------------------------------------------------- *)

(** The disk namespace: the build identity, a digest of the library
    sources written at build time (see [buildid/dune]). *)
let namespace = Zkopt_buildid.id

let disk_path dir name = Filename.concat (Filename.concat dir namespace) name

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Sys.mkdir p 0o755 with Sys_error _ -> ()
    end
  in
  go path

let disk_load t codec digest : 'a option =
  match (t.dir, codec) with
  | None, _ | _, None -> None
  | Some dir, Some codec -> (
    let path = disk_path dir digest in
    if not (Sys.file_exists path) then None
    else
      try
        let ic = open_in_bin path in
        let bytes =
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> In_channel.input_all ic)
        in
        codec.dec bytes
      with _ -> None (* truncated/corrupt artifact: treat as a miss *))

let disk_store t codec digest art =
  match (t.dir, codec) with
  | None, _ | _, None -> ()
  | Some dir, Some codec -> (
    try
      match codec.enc art with
      | None -> ()
      | Some bytes ->
        let path = disk_path dir digest in
        mkdir_p (Filename.dirname path);
        let tmp =
          Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
            (Domain.self () :> int)
        in
        let oc = open_out_bin tmp in
        output_string oc bytes;
        close_out oc;
        Sys.rename tmp path
    with _ -> () (* the disk store is an optimization, never a failure *))

(* ---- in-memory LRU (called with [mu] held) -------------------------- *)

let insert_locked t digest art =
  t.tick <- t.tick + 1;
  if t.capacity > 0 then
    while Hashtbl.length t.table >= t.capacity do
      let victim =
        Hashtbl.fold
          (fun k (e : _ entry) acc ->
            match acc with
            | Some (_, best) when best <= e.last_use -> acc
            | _ -> Some (k, e.last_use))
          t.table None
      in
      match victim with
      | Some (k, _) ->
        Hashtbl.remove t.table k;
        t.evictions <- t.evictions + 1
      | None -> Hashtbl.reset t.table
    done;
  Hashtbl.replace t.table digest { art; last_use = t.tick }

(* ---- first level: input key -> module digest ------------------------ *)

let inputs_name = "inputs.log"

(* A log row is an input key, a module digest and a digest over both:
   a row with any byte changed fails its check and is skipped. *)
let row_check key digest = Digest.to_hex (Digest.string (key ^ "\t" ^ digest))

let decode_input_row line =
  match String.split_on_char '\t' line with
  | [ key; digest; check ] when String.equal check (row_check key digest) ->
    Some (key, digest)
  | _ -> None

(* Called with [mu] held.  An unreadable log reads as empty: the disk
   store is an optimization, never a failure. *)
let load_inputs_locked t =
  if not t.inputs_loaded then begin
    t.inputs_loaded <- true;
    match t.dir with
    | None -> ()
    | Some dir -> (
      match Rowlog.load (disk_path dir inputs_name) ~decode:decode_input_row with
      | rows ->
        List.iter (fun (key, digest) -> Hashtbl.replace t.inputs key digest) rows
      | exception Sys_error _ -> ())
  end

(* Called with [mu] held.  A failed open or write loses the row: the
   disk store is an optimization, never a failure. *)
let append_input_locked t dir key digest =
  try
    let log =
      match !(t.inputs_log) with
      | Some log -> log
      | None ->
        let path = disk_path dir inputs_name in
        mkdir_p (Filename.dirname path);
        let log = Rowlog.open_ ~fresh:false path in
        t.inputs_log := Some log;
        log
    in
    Rowlog.append log (String.concat "\t" [ key; digest; row_check key digest ])
  with Sys_error _ | Unix.Unix_error _ -> ()

(** [resolve t ~key] is the module digest recorded for input key [key],
    in memory or in the namespace's log (read on the first call). *)
let resolve t ~key : string option =
  Mutex.protect t.mu (fun () ->
      load_inputs_locked t;
      Hashtbl.find_opt t.inputs key)

(** [record t ~key ~digest] maps input key [key] to module digest
    [digest], replacing any earlier entry, and appends a row to the
    namespace's log when the cache has a disk store.  Callers record
    only a digest they computed from a module that verified. *)
let record t ~key ~digest =
  Mutex.protect t.mu (fun () ->
      load_inputs_locked t;
      if not (Option.equal String.equal (Hashtbl.find_opt t.inputs key) (Some digest))
      then begin
        Hashtbl.replace t.inputs key digest;
        Option.iter (fun dir -> append_input_locked t dir key digest) t.dir
      end)

(* ---- lookup --------------------------------------------------------- *)

(** [get_or_compile t ~digest ?codec ~compile] returns the artifact for
    [digest], compiling with [compile] only when neither memory, disk,
    nor a concurrent in-flight compile can supply it.  Without [codec]
    the on-disk store is bypassed for this call. *)
let get_or_compile (type a) ?codec (t : a t) ~digest ~(compile : unit -> a) :
    a =
  Mutex.lock t.mu;
  let rec acquire () =
    match Hashtbl.find_opt t.table digest with
    | Some e ->
      t.tick <- t.tick + 1;
      e.last_use <- t.tick;
      t.hits <- t.hits + 1;
      `Hit e.art
    | None ->
      if Hashtbl.mem t.inflight digest then begin
        (* another domain is compiling this digest: wait for it *)
        Condition.wait t.ready t.mu;
        acquire ()
      end
      else begin
        Hashtbl.replace t.inflight digest ();
        `Mine
      end
  in
  match acquire () with
  | `Hit art ->
    Mutex.unlock t.mu;
    art
  | `Mine -> (
    Mutex.unlock t.mu;
    let finish ~from_disk art =
      Mutex.lock t.mu;
      if from_disk then t.disk_hits <- t.disk_hits + 1
      else t.misses <- t.misses + 1;
      insert_locked t digest art;
      Hashtbl.remove t.inflight digest;
      Condition.broadcast t.ready;
      Mutex.unlock t.mu;
      art
    in
    match disk_load t codec digest with
    | Some art -> finish ~from_disk:true art
    | None -> (
      match compile () with
      | art ->
        let art = finish ~from_disk:false art in
        disk_store t codec digest art;
        art
      | exception e ->
        (* release waiters: one of them will take over the compile *)
        Mutex.lock t.mu;
        Hashtbl.remove t.inflight digest;
        Condition.broadcast t.ready;
        Mutex.unlock t.mu;
        raise e))
