(** The fault-tolerant sweep engine.

    Turns the 58-program x 71-profile x N-backend measurement campaign
    into a resumable, multicore job engine.  Backends are
    {!Zkopt_backend.Backend.t} values (default: the risc0 + sp1 pair
    from the registry), so the engine is generic over ISAs — a zk-native
    backend slots in as a third column, not a new code path:

    - cells are the tasks of a {!Zkopt_exec.Drive} plan: [jobs = 1]
      runs them inline, [jobs = N] on a domain pool with identical
      results — cells are independent measurements, the one cross-cell
      dependency (the baseline-differential oracle) is honored by
      planning every program's baseline cell in a first wave;
    - each cell's pass pipeline runs once per cache, and each
      structurally distinct compilation happens once: the compile cache
      ({!Zkopt_exec.Cache}) first maps the cell's inputs ({!input_key}:
      program, size, pass configuration and pass list) to the digest of
      the module they produce ({!Zkopt_exec.Fingerprint}), then that
      digest to the assembled program, which every backend of a codegen
      family, every profile that leaves a program untouched, and (with
      a disk store) every later run share.  A warm cache runs no
      pipeline: the module is prepared only when an artifact must be
      compiled ({!with_module}).  Artifacts live in memory only; each
      keeps its unfaulted runs, recorded in the disk store too, so it
      executes once per backend and fuel, an evicted artifact is
      answered from its kept runs, and a rerun over a warm store
      executes no guest and compiles nothing;
    - every cell runs under an exception barrier ({!Cell.protect}) and
      either yields a point or lands in a quarantine list with a typed
      {!Error.t} — one miscompile no longer kills the remaining ~8,000
      cells;
    - fuel exhaustion retries with an escalating budget ({!Retry});
      deterministic faults do not retry;
    - two oracles guard every measured cell: the differential checksum
      oracle (every backend vs. the head backend within the cell, and
      profile-vs-baseline across cells) and each backend's own
      accounting conservation oracle
      ({!Zkopt_backend.Backend.measurement});
    - completed points stream to an append-only checkpoint
      ({!Zkopt_exec.Rowlog}, {!Checkpoint} codec) in plan order, so the
      log is byte-identical at any [jobs], and a resumed run replays
      already-done cells instead of measuring them;
    - a per-sweep failure budget bounds degradation: exceed it and the
      sweep aborts with a summary ({!Budget_exceeded});
    - graceful degradation: a CPU-model failure downgrades the cell to
      zkVM-only metrics instead of discarding it. *)

open Zkopt_core
module Pool = Zkopt_exec.Pool
module Drive = Zkopt_exec.Drive
module Cache = Zkopt_exec.Cache
module Fingerprint = Zkopt_exec.Fingerprint
module Backend = Zkopt_backend.Backend
module Registry = Zkopt_backend.Registry

type config = {
  size : Zkopt_workloads.Workload.size;
  programs : string list option;  (** [None] = the full 58-program suite *)
  profiles : Profile.t list option;  (** [None] = all 71 profiles *)
  failure_budget : int;
      (** quarantined cells tolerated before the sweep aborts *)
  checkpoint : string option;  (** append-only checkpoint file *)
  resume : bool;
      (** load already-done cells from [checkpoint]; [false] discards
          the file's rows *)
  retry : Retry.policy;
  faultplan : Faultplan.t;  (** injected faults (testing) *)
  progress : bool;
  limit : int option;
      (** measure at most this many unlogged cells, the first in plan
          order (baselines first), then stop gracefully (time-slicing;
          the checkpoint keeps the rest resumable) *)
  jobs : int;  (** worker domains; 1 = inline *)
  cache : Backend.compiled Cache.t option;
      (** compile cache to use; [None] = a fresh private in-memory
          cache per run.  Pass a shared cache to memoize across runs. *)
  backends : Backend.t list option;
      (** backends to measure each cell on, in order; the head backend
          is the differential-oracle reference.  [None] = the classic
          risc0 + sp1 pair from the registry. *)
  pool : Pool.t option;
      (** external worker pool to run cells on; [None] = a private pool
          of [jobs] domains created and destroyed by this run, or inline
          at [jobs = 1].  A service passes its long-lived pool so every
          job shares one warm set of domains; the harness never shuts it
          down. *)
  on_row : string -> unit;
      (** streaming hook: the checkpoint line of every point, resumed and
          measured, in the order the checkpoint holds them, one call at a
          time *)
  stop : unit -> bool;
      (** cooperative cancellation, polled before each cell: once it
          returns [true], remaining cells are skipped (no point, no
          checkpoint row) and the outcome reports [completed = false],
          so a later run resumes exactly where this one drained. *)
}

let default ~size =
  {
    size;
    programs = None;
    profiles = None;
    failure_budget = 32;
    checkpoint = None;
    resume = true;
    retry = Retry.default;
    faultplan = Faultplan.none;
    progress = false;
    limit = None;
    jobs = 1;
    cache = None;
    backends = None;
    pool = None;
    on_row = ignore;
    stop = (fun () -> false);
  }

(** Resolve the sweep's backend list (non-empty, unique names). *)
let backends_of (cfg : config) : Backend.t list =
  let bs =
    match cfg.backends with
    | Some [] -> invalid_arg "Harness: empty backend list"
    | Some bs -> bs
    | None -> [ Registry.find "risc0"; Registry.find "sp1" ]
  in
  let seen = Hashtbl.create 4 in
  List.iter
    (fun (b : Backend.t) ->
      if Hashtbl.mem seen b.Backend.name then
        invalid_arg ("Harness: duplicate backend " ^ b.Backend.name);
      Hashtbl.replace seen b.Backend.name ())
    bs;
  bs

type outcome = {
  points : (string * string, Cell.point) Hashtbl.t;  (** (program, profile) *)
  programs : Zkopt_workloads.Workload.t list;
  quarantined : Error.t list;  (** failed cells, in discovery order *)
  degraded : (Error.coord * string) list;
      (** cells kept with partial metrics *)
  executed : int;  (** cells measured by this invocation *)
  prepared : int;
      (** pass pipelines this invocation ran (build, link, pipeline,
          verify): one per cell on a cold cache, none on a warm one *)
  resumed : int;  (** cells loaded from the checkpoint *)
  retries : int;  (** extra attempts spent on fuel escalation *)
  completed : bool;  (** false when stopped by [limit] *)
  cache_stats : Cache.stats;  (** compile-cache traffic of this run *)
}

let quarantine_report (errs : Error.t list) : string =
  match errs with
  | [] -> "quarantine: empty (all cells healthy)"
  | errs ->
    let counts = Hashtbl.create 8 in
    List.iter
      (fun (e : Error.t) ->
        let k = Error.kind_name e.Error.kind in
        Hashtbl.replace counts k
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
      errs;
    let summary =
      Hashtbl.fold (fun k n acc -> Printf.sprintf "%s=%d" k n :: acc) counts []
      |> List.sort compare |> String.concat ", "
    in
    Printf.sprintf "quarantine: %d cell(s) (%s)\n%s" (List.length errs)
      summary
      (String.concat "\n"
         (List.map (fun e -> "  " ^ Error.to_string e) errs))

exception Budget_exceeded of Error.t list

(** The input key of a cell: a digest of its program, size and the
    {!Profile.pipeline} its profile runs (every [Pass.config] field, by
    the record's bytes, and the pass list).  These inputs determine the
    prepared module, so the compile cache's first level maps the key to
    that module's {!Fingerprint.of_modul} digest. *)
let input_key ~size (w : Zkopt_workloads.Workload.t) (profile : Profile.t) :
    string =
  let config, passes = Profile.pipeline profile in
  let program = w.Zkopt_workloads.Workload.name in
  Fingerprint.of_pipeline
    ~salt:(Digest.to_hex (Digest.string (Marshal.to_string (program, size, config) [])))
    passes

(* A first-level hit whose module, once forced, digests to something
   else: the fresh module, to measure the cell from. *)
exception Stale of Zkopt_ir.Modul.t

(** [with_module ?prepared cache ~size w profile f] is [f ~fp m] for the
    cell's module digest [fp] and its module [m], resolved through the
    compile cache's first level.  On a miss the module is prepared
    ({!Measure.prepare_ir}: build, link, pipeline, verify) and
    fingerprinted, and only then recorded under {!input_key}.  On a hit
    [m] is prepared only if forced, which {!Backend.compile_cached} does
    only to compile.  A forced module whose digest is not the recorded
    one replaces the entry, and [f] runs again from the fresh module; [f]
    must let the exception that signals it pass.  Nothing forces [m]
    while kept runs answer the cell's calls, so an entry that names
    another cell's digest, and whose kept runs answer every call the
    cell makes, gives that cell's rows.  The guarantee is the log's row
    check: it catches a corrupt entry (a flipped byte, a torn row), and
    only a writer in this build's namespace can write a checked but
    wrong one.  [prepared] counts the pipelines run. *)
let with_module ?(prepared = Atomic.make 0) (cache : Backend.compiled Cache.t)
    ~size (w : Zkopt_workloads.Workload.t) (profile : Profile.t)
    (f : fp:string -> Zkopt_ir.Modul.t Lazy.t -> 'a) : 'a =
  let key = input_key ~size w profile in
  let prepare () =
    Atomic.incr prepared;
    Measure.prepare_ir ~build:(fun () -> w.Zkopt_workloads.Workload.build size) profile
  in
  let fresh m =
    let fp = Fingerprint.of_modul m in
    Cache.record cache ~key ~value:fp;
    f ~fp (Lazy.from_val m)
  in
  match Cache.resolve cache ~key with
  | None -> fresh (prepare ())
  | Some fp -> (
    let m =
      lazy
        (let m = prepare () in
         if String.equal (Fingerprint.of_modul m) fp then m else raise (Stale m))
    in
    match f ~fp m with v -> v | exception Stale m -> fresh m)

(** Measure one cell under the harness policies.  The cell's module
    digest comes from the compile cache's first level ({!with_module}),
    and its artifact from the second, keyed by that digest plus the
    backend's codegen-schema tag — backends sharing a codegen family
    (risc0/sp1) share one artifact per cell.  The cached artifact keeps
    each completed unfaulted run ({!Backend.compile_cached}), so a cell
    whose artifact repeats an earlier cell's, in this run or in an
    earlier run over the same disk store, reuses its measurements at
    the same fuel; a faulted backend, a starved attempt and a failing
    run always execute.  Returns the point, the attempts consumed, and
    an optional degradation note (CPU model failed; zkVM metrics
    kept). *)
let measure_cell ?prepared (cfg : config) (cache : Backend.compiled Cache.t)
    (w : Zkopt_workloads.Workload.t) (profile : Profile.t) :
    Cell.point * int * string option =
  let pname = Profile.name profile in
  let backends = backends_of cfg in
  let with_cpu =
    match profile with
    | Profile.Baseline | Profile.Single_pass _ -> true
    | _ -> false
  in
  let (point, degraded), attempts =
    Retry.run cfg.retry (fun ~fuel ->
        with_module ?prepared cache ~size:cfg.size w profile @@ fun ~fp m ->
        (* per-cell memo over the shared cache so every backend of a
           codegen family resolves its artifact exactly once per attempt *)
        let arts : (string, Backend.compiled) Hashtbl.t = Hashtbl.create 4 in
        let compiled_for (b : Backend.t) : Backend.compiled =
          match Hashtbl.find_opt arts b.Backend.schema with
          | Some c -> c
          | None ->
            let c = Backend.compile_cached ~cache b ~fp m in
            Hashtbl.replace arts b.Backend.schema c;
            c
        in
        let zk_of (b : Backend.t) =
          let vm = b.Backend.name in
          try
            let c = compiled_for b in
            let fault =
              Faultplan.executor_fault cfg.faultplan ~program:w.name
                ~profile:pname ~vm
            in
            let r = c.Backend.measure ~vm ?fault ~fuel () in
            (match r.Backend.accounting with
            | Ok () -> ()
            | Error msg -> raise (Error.Accounting msg));
            r.Backend.zk
          with
          | Stale _ as e -> raise e
          | e -> raise (Error.In_vm (vm, e))
        in
        (* the CPU contrast model runs off the first backend that can
           drive it (an RV32 instruction stream); a zk-native-only sweep
           simply has no CPU column.  It runs first: its run is the one
           the RV32 artifact prices both zkVM configs from.  Its failure
           is handled after the zkVM runs, so a cell fails as it would
           if they ran first. *)
        let cpu_run =
          let run () =
            match
              List.find_map
                (fun (b : Backend.t) -> (compiled_for b).Backend.measure_cpu)
                backends
            with
            | Some run -> Some (run ~fuel ())
            | None -> None
          in
          if not with_cpu then None
          else
            match run () with
            | m -> Option.map Result.ok m
            | exception (Stale _ as e) -> raise e
            | exception e -> Some (Error e)
        in
        let zk = List.map zk_of backends in
        let cpu, degraded =
          match cpu_run with
          | None -> (None, None)
          | Some (Ok m) -> (Some m, None)
          | Some (Error (Zkopt_riscv.Emulator.Out_of_fuel f)) ->
            (* transient: let the retry policy escalate the budget *)
            raise (Error.In_vm ("cpu", Zkopt_riscv.Emulator.Out_of_fuel f))
          | Some (Error e) ->
            (* deterministic CPU-model failure: degrade gracefully and
               keep the zkVM metrics rather than losing the cell *)
            (None, Some (Printexc.to_string e))
        in
        ( {
            Cell.program = w.Zkopt_workloads.Workload.name;
            suite = w.Zkopt_workloads.Workload.suite;
            profile = pname;
            zk;
            cpu;
          },
          degraded ))
  in
  (point, attempts, degraded)

(* The differential checksum oracles: every backend must agree with the
   head backend within the cell, and every profile must preserve the
   program's baseline checksum. *)
let oracle_failure (coord : Error.coord) ~(baseline : Cell.point option)
    (p : Cell.point) : Error.t option =
  let head, others =
    match p.Cell.zk with h :: t -> (h, t) | [] -> assert false
  in
  let miscompile coord ~expected ~got oracle =
    Some { Error.coord; kind = Error.Miscompile { expected; got; oracle } }
  in
  match
    List.find_opt
      (fun (z : Measure.zk_metrics) ->
        not (Int64.equal head.Measure.exit_value z.Measure.exit_value))
      others
  with
  | Some z ->
    miscompile
      { coord with Error.vm = z.Measure.vm }
      ~expected:head.Measure.exit_value ~got:z.Measure.exit_value
      (head.Measure.vm ^ "-vs-" ^ z.Measure.vm)
  | None -> (
    match baseline with
    | Some (base : Cell.point)
      when (not (String.equal p.Cell.profile "baseline"))
           && not
                (Int64.equal (List.hd base.Cell.zk).Measure.exit_value
                   head.Measure.exit_value) ->
      miscompile coord
        ~expected:(List.hd base.Cell.zk).Measure.exit_value
        ~got:head.Measure.exit_value "baseline-differential"
    | _ -> None)

let key ~program ~profile = program ^ "\t" ^ profile

let run (cfg : config) : outcome =
  let all = Zkopt_workloads.Suite.all () in
  let programs =
    match cfg.programs with
    | None -> all
    | Some names -> List.map Zkopt_workloads.Workload.find names
  in
  let profiles =
    match cfg.profiles with None -> Profile.all_71 | Some ps -> ps
  in
  let cache =
    match cfg.cache with Some c -> c | None -> Cache.create ()
  in
  let stats0 = Cache.stats cache in
  let prepared = Atomic.make 0 in
  (* [mu] guards the quarantine and the counters *)
  let mu = Mutex.create () in
  let quarantined = ref [] in
  let nquarantined = ref 0 in
  let degraded = ref [] in
  let executed = ref 0 in
  let retries = ref 0 in
  let emitted = Atomic.make 0 in
  let total = List.length programs * List.length profiles in
  (* baseline points by program: filled while wave 1 emits, read by the
     wave-2 cells' baseline-differential oracle *)
  let baselines = Hashtbl.create 64 in
  let quarantine (err : Error.t) =
    let burst =
      Mutex.protect mu (fun () ->
          quarantined := err :: !quarantined;
          incr nquarantined;
          if cfg.progress then
            Printf.eprintf "  sweep: QUARANTINE %s\n%!" (Error.to_string err);
          if !nquarantined > cfg.failure_budget then
            Some (List.rev !quarantined)
          else None)
    in
    Option.iter (fun errs -> raise (Budget_exceeded errs)) burst
  in
  let measure (w : Zkopt_workloads.Workload.t) profile () =
    let wname = w.Zkopt_workloads.Workload.name in
    let coord =
      { Error.program = wname; profile = Profile.name profile; vm = "-" }
    in
    let rows =
      match
        Cell.protect ~coord (fun () -> measure_cell ~prepared cfg cache w profile)
      with
      | Error err ->
        quarantine err;
        []
      | Ok (p, attempts, deg) -> (
        Mutex.protect mu (fun () ->
            retries := !retries + attempts - 1;
            Option.iter
              (fun d ->
                degraded := ({ coord with Error.vm = "cpu" }, d) :: !degraded)
              deg);
        match
          oracle_failure coord ~baseline:(Hashtbl.find_opt baselines wname) p
        with
        | Some err ->
          quarantine err;
          []
        | None -> [ p ])
    in
    let ex = Mutex.protect mu (fun () -> incr executed; !executed) in
    if cfg.progress && ex mod 200 = 0 then
      Printf.eprintf "  sweep: %d/%d (this run: %d)\n%!" (Atomic.get emitted)
        total ex;
    rows
  in
  let wave ps =
    List.concat_map
      (fun (w : Zkopt_workloads.Workload.t) ->
        List.map
          (fun profile ->
            {
              Drive.keys =
                [ key ~program:w.Zkopt_workloads.Workload.name
                    ~profile:(Profile.name profile) ];
              run = measure w profile;
            })
          ps)
      programs
  in
  (* Two waves: baselines first so the baseline-differential oracle sees
     a program's baseline checksum (when measured at all) regardless of
     how the pool interleaves the rest. *)
  let base, rest =
    List.partition (fun p -> String.equal (Profile.name p) "baseline") profiles
  in
  let o =
    Drive.run
      {
        Drive.encode = Checkpoint.encode_point;
        decode = Checkpoint.decode_point;
        key =
          (fun (p : Cell.point) ->
            key ~program:p.Cell.program ~profile:p.Cell.profile);
        checkpoint = cfg.checkpoint;
        header = Some Checkpoint.version;
        fresh = not cfg.resume;
        limit = cfg.limit;
        jobs = cfg.jobs;
        pool = cfg.pool;
        stop = cfg.stop;
        on_row =
          (fun (p : Cell.point) line ->
            if String.equal p.Cell.profile "baseline" then
              Hashtbl.replace baselines p.Cell.program p;
            Atomic.incr emitted;
            cfg.on_row line);
      }
      [ wave base; wave rest ]
  in
  let points = Hashtbl.create 4096 in
  List.iter
    (fun (p : Cell.point) ->
      Hashtbl.replace points (p.Cell.program, p.Cell.profile) p)
    o.Drive.rows;
  {
    points;
    programs;
    quarantined = List.rev !quarantined;
    degraded = List.rev !degraded;
    executed = o.Drive.ran;
    prepared = Atomic.get prepared;
    resumed = o.Drive.replayed;
    retries = !retries;
    completed = o.Drive.completed;
    cache_stats = Cache.sub_stats (Cache.stats cache) stats0;
  }
