(** The first-class zkVM backend interface.

    A backend turns an optimized {!Zkopt_ir.Modul.t} into an executable
    artifact ({!compiled}), executes it to a segmented trace under a cost
    model, prices instructions/paging, and models the prover — the four
    stages the paper measures.  The two RV32 cost configs (risc0, sp1)
    and the zk-native Valida-style backend ([lib/valida]) are registry
    instances ({!Registry}); the harness, profiler, bench experiments and
    the [zkbench] CLI are generic over this interface, so a fourth
    backend is a registry entry, not a refactor.

    Design notes:

    - Backends that share a codegen path (risc0 and sp1 both execute the
      same assembled RV32 image) share a [schema] string: the compile
      cache keys on [digest ^ "+" ^ schema], so one {!compiled} serves
      every backend of the family, and {!compiled.measure} dispatches on
      the backend name it is asked to price for.
    - {!compiled} holds closures (execution captures the program
      image), and it lives in memory only.  The compile cache's disk
      store holds its first level (input keys to module digests, and
      kept runs), never an artifact; {!compile_cached} answers a call
      from kept runs, and compiles an artifact that is not in memory at
      the first call that needs it.
    - Exit values cross this boundary exactly once, already normalized
      to the canonical int64 encoding ({!Zkopt_core.Measure.exit64}), so
      cross-backend conformance checks are a plain [Int64.equal].
    - [accounting] carries the backend's own conservation check (trace
      totals must reconcile with the per-segment journal), evaluated at
      measurement time where the raw trace is still in hand. *)

open Zkopt_ir
module Measure = Zkopt_core.Measure

type measurement = {
  zk : Measure.zk_metrics;
  accounting : (unit, string) result;
      (** the backend's cost-conservation oracle over this run's trace *)
  faulted : bool;  (** an injected executor fault fired during the run *)
  seg_padded : int list;
      (** per-segment padded trace area (committed rows after the
          backend's pow2 padding; a multi-chip backend reports the sum
          over its tables), in execution order — the proof-size input
          the settlement models consume *)
}

type compiled = {
  static_instrs : unit -> int;  (** static code size, backend instructions *)
  site_of_pc : int32 -> (string * string) option;
      (** provenance: pc -> (function, IR block), for the profiler *)
  spills : unit -> (string * int) list;
      (** per-function static spill instruction counts; empty by
          construction on register-free backends — the paper's
          register-pair-spilling mechanism has nowhere to exist *)
  measure :
    vm:string ->
    ?fault:Zkopt_zkvm.Machine.fault ->
    ?fuel:int ->
    ?sink:Zkopt_zkvm.Machine.sink ->
    unit ->
    measurement;
      (** execute + price + prove for backend [vm] (a name of this
          compiled artifact's family; RV32 artifacts serve both
          ["risc0"] and ["sp1"]); [sink] observes every accounted event.
          An RV32 artifact executes once per fuel for both configs and
          its CPU model: an unfaulted, unsinked call prices the tally of
          that fuel's one unpriced run ({!Zkopt_zkvm.Vm.price}), and
          takes the priced machine only when that run is longer than
          one segment under [vm]'s config ([Rv32.of_compiled]) *)
  measure_cpu :
    (?fuel:int ->
    ?sink:Zkopt_zkvm.Machine.sink ->
    unit ->
    Measure.cpu_metrics)
    option;
      (** the RQ3 traditional-CPU contrast model, where the backend's
          instruction stream can drive it; [None] otherwise *)
}

type t = {
  name : string;  (** registry key; the [vm] string in metrics *)
  doc : string;  (** one-line description for [zkbench backends] *)
  zk_native : bool;
      (** true for ISAs designed for arithmetization (no register file,
          multi-chip trace); false for RV32 transpilation backends.  It
          also says whether artifacts drive the CPU model: a backend
          that is not zk-native gives every artifact a [measure_cpu],
          and a zk-native one gives none *)
  schema : string;
      (** codegen-family tag: backends with equal [schema] share
          compiled artifacts, cached under [digest ^ "+" ^ schema];
          backends that share a schema and a [name] must measure
          identically (kept runs are keyed by the artifact key and the
          name) *)
  segment_pad : int -> int;
      (** prover padding residue added to a segment/table of [n] trace
          rows (pow2 padding above the backend's floor); the profiler's
          padding dimension mirrors the backend's prover with this *)
  compile : Modul.t -> compiled;
  decode : Modul.t -> string -> compiled option;
      (** unused: every backend sets it to [fun _ _ -> None], and no
          artifact is read back from bytes.  The field stays only
          because the benchmark wraps it with this type. *)
}

(* ---- kept runs as first-level values ---------------------------------- *)

let ( let* ) = Option.bind

(* Space-joined fields and a final "." field: a value cut anywhere
   lacks the "." or has too few fields, so it never decodes. *)
let join fields = String.concat " " (fields @ [ "." ])

(* The fields of a value before its "." field, last first. *)
let fields_rev s =
  match List.rev (String.split_on_char ' ' s) with
  | "." :: rev -> Some rev
  | _ -> None

let encode_run (r : measurement) : string =
  join
    (Measure.zk_fields r.zk
    @ [ String.concat "," (List.map string_of_int r.seg_padded) ])

let decode_run (s : string) : measurement option =
  match fields_rev s with
  | Some (segs :: rev_zk) ->
    let* zk = Measure.zk_of_fields (List.rev rev_zk) in
    let* seg_padded =
      if segs = "" then Some []
      else
        let parts = String.split_on_char ',' segs in
        let ns = List.filter_map int_of_string_opt parts in
        if List.compare_lengths ns parts = 0 then Some ns else None
    in
    Some { zk; accounting = Ok (); faulted = false; seg_padded }
  | _ -> None

let encode_cpu_run (c : Measure.cpu_metrics) : string = join (Measure.cpu_fields c)

let decode_cpu_run (s : string) : Measure.cpu_metrics option =
  let* rev = fields_rev s in
  Measure.cpu_of_fields (List.rev rev)

(* The first-level key of a run of the artifact cached under [key]:
   the key, the backend name (the CPU model has none) and the fuel. *)
let run_key ~key ?vm fuel =
  String.concat " " ((key :: Option.to_list vm) @ [ string_of_int fuel ])

(* The run [cache]'s first level keeps under [run_key], if it decodes. *)
let kept_run cache run_key ~decode =
  Option.bind (Zkopt_exec.Cache.resolve cache ~key:run_key) decode

(* A call with no fuel runs at the default of every run. *)
let resolved = Option.value ~default:Zkopt_riscv.Emulator.default_fuel

(* [b]'s artifact cached under [key], with its runs kept: a completed
   run with no fault and no sink is kept in a table, keyed by [(vm,
   fuel)] for [measure] and by [fuel] for [measure_cpu], and an equal
   call is served from it.  The key is the resolved fuel, so a call that
   names none shares the entry of one at
   {!Zkopt_riscv.Emulator.default_fuel}, every run's default.  A miss in
   the table first looks in [cache]'s first level under the run key,
   where a completed run with clean accounting and no fault is recorded,
   so neither an evicted artifact nor a fresh cache over the same disk
   store executes it again.
   Faulted and sinked calls always execute, and a run that raises keeps
   nothing.  No run holds the lock: two domains racing on one key may
   both run it, and keep the same result.  A hit builds no run key.

   [artifact] is called only by a call that needs the artifact: a run
   nothing keeps, a faulted or sinked call, or a use of its static data.
   It is called under the lock and its result kept, so it returns at
   most once; a [Lazy] would raise [Lazy.Undefined] when two domains
   force it at once.  Whether [measure_cpu] exists cannot wait for the
   artifact, so it follows [b.zk_native]. *)
let kept cache (b : t) ~key (artifact : unit -> compiled) : compiled =
  let mu = Mutex.create () and art = ref None in
  let artifact () =
    Mutex.protect mu (fun () ->
        match !art with
        | Some c -> c
        | None ->
          let c = artifact () in
          art := Some c;
          c)
  in
  let zk = Hashtbl.create 2 and cpu = Hashtbl.create 1 in
  let remember tbl k miss =
    match Mutex.protect mu (fun () -> Hashtbl.find_opt tbl k) with
    | Some r -> r
    | None ->
      let r = miss k in
      Mutex.protect mu (fun () -> Hashtbl.replace tbl k r);
      r
  in
  let persisted run_key ~decode ~encode run =
    match kept_run cache run_key ~decode with
    | Some r -> r
    | None ->
      let r = run () in
      Option.iter
        (fun value -> Zkopt_exec.Cache.record cache ~key:run_key ~value)
        (encode r);
      r
  in
  let zk_miss (vm, fuel) =
    persisted (run_key ~key ~vm fuel) ~decode:decode_run
      ~encode:(fun r ->
        if r.accounting = Ok () && not r.faulted then Some (encode_run r)
        else None)
      (fun () -> (artifact ()).measure ~vm ~fuel ())
  in
  let measure ~vm ?fault ?fuel ?sink () =
    match (fault, sink) with
    | None, None -> remember zk (vm, resolved fuel) zk_miss
    | _ -> (artifact ()).measure ~vm ?fault ?fuel ?sink ()
  in
  let run_cpu ?fuel ?sink () =
    match (artifact ()).measure_cpu with
    | Some run -> run ?fuel ?sink ()
    | None ->
      invalid_arg (b.name ^ " is not zk-native, yet its artifact has no CPU model")
  in
  let cpu_miss fuel =
    persisted (run_key ~key fuel) ~decode:decode_cpu_run
      ~encode:(fun r -> Some (encode_cpu_run r))
      (fun () -> run_cpu ~fuel ())
  in
  let measure_cpu ?fuel ?sink () =
    match sink with
    | None -> remember cpu (resolved fuel) cpu_miss
    | Some _ -> run_cpu ?fuel ?sink ()
  in
  {
    static_instrs = (fun () -> (artifact ()).static_instrs ());
    site_of_pc = (fun pc -> (artifact ()).site_of_pc pc);
    spills = (fun () -> (artifact ()).spills ());
    measure;
    measure_cpu = (if b.zk_native then None else Some measure_cpu);
  }

let compile_cached ?cache (b : t) ~fp (m : Modul.t Lazy.t) : compiled =
  match cache with
  | None -> b.compile (Lazy.force m)
  | Some cache ->
    let key = fp ^ "+" ^ b.schema in
    let lookup () =
      Zkopt_exec.Cache.get_or_compile cache ~digest:key ~compile:(fun () ->
          let c = b.compile (Lazy.force m) in
          kept cache b ~key (Fun.const c))
    in
    (* an artifact not in memory is compiled when a call needs it *)
    if Zkopt_exec.Cache.mem cache ~digest:key then lookup ()
    else kept cache b ~key lookup
