(** The fault-tolerant sweep engine.

    Turns the 58-program x 71-profile x N-backend measurement campaign
    into a resumable, multicore job engine.  Backends are
    {!Zkopt_backend.Backend.t} values (default: the risc0 + sp1 pair
    from the registry), so the engine is generic over ISAs — a zk-native
    backend slots in as a third column, not a new code path:

    - cells execute on a work-stealing domain pool ({!Zkopt_exec.Pool});
      [jobs = 1] reproduces the old sequential walk exactly, [jobs = N]
      runs cells concurrently with identical results — cells are
      independent measurements, the one cross-cell dependency (the
      baseline-differential oracle) is honored by scheduling every
      program's baseline cell in a first wave;
    - each structurally distinct compilation happens once: the optimized
      module is digested ({!Zkopt_exec.Fingerprint}) and the assembled
      program fetched from a content-addressed cache
      ({!Zkopt_exec.Cache}) shared by every backend of a codegen family,
      by profiles that leave a program untouched, and (with a disk
      store) by successive runs;
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
      ({!Zkopt_exec.Rowlog}, {!Checkpoint} codec): each worker appends
      its row as one flushed whole line in completion order, so the log
      is byte-deterministic modulo row order, and a resumed run skips
      already-done cells;
    - a per-sweep failure budget bounds degradation: exceed it and the
      sweep aborts with a summary ({!Budget_exceeded});
    - graceful degradation: a CPU-model failure downgrades the cell to
      zkVM-only metrics instead of discarding it. *)

open Zkopt_core
module Pool = Zkopt_exec.Pool
module Rowlog = Zkopt_exec.Rowlog
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
      (** measure at most this many new cells, then stop gracefully
          (time-slicing; the checkpoint keeps the rest resumable) *)
  jobs : int;  (** worker domains; 1 = sequential cell order *)
  cache : Backend.compiled Cache.t option;
      (** compile cache to use; [None] = a fresh private in-memory
          cache per run.  Pass a shared cache to memoize across runs. *)
  backends : Backend.t list option;
      (** backends to measure each cell on, in order; the head backend
          is the differential-oracle reference.  [None] = the classic
          risc0 + sp1 pair from the registry. *)
  pool : Pool.t option;
      (** external worker pool to run cells on; [None] = a private pool
          of [jobs] domains created and destroyed by this run.  A
          service passes its long-lived pool so every job shares one
          warm set of domains; the harness never shuts it down. *)
  on_point : (Cell.point -> unit) option;
      (** streaming hook, called once per accepted point — both points
          resumed from the checkpoint (before any cell runs) and points
          measured by this run, in completion order.  Called from worker
          domains concurrently; the callback must be thread-safe. *)
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
    on_point = None;
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

(** Measure one cell under the harness policies.  Compilation goes
    through the content-addressed [cache], keyed by module digest plus
    the backend's codegen-schema tag — backends sharing a codegen family
    (risc0/sp1) share one artifact per cell; execution is always fresh.
    Returns the point, the attempts consumed, and an optional
    degradation note (CPU model failed; zkVM metrics kept). *)
let measure_cell (cfg : config) (cache : Backend.compiled Cache.t)
    (w : Zkopt_workloads.Workload.t) (profile : Profile.t) :
    Cell.point * int * string option =
  let pname = Profile.name profile in
  let build () = w.Zkopt_workloads.Workload.build cfg.size in
  let backends = backends_of cfg in
  let with_cpu =
    match profile with
    | Profile.Baseline | Profile.Single_pass _ -> true
    | _ -> false
  in
  let (point, degraded), attempts =
    Retry.run cfg.retry (fun ~fuel ->
        let m = Measure.prepare_ir ~build profile in
        let digest = Fingerprint.of_modul m in
        (* per-cell memo over the shared cache so every backend of a
           codegen family resolves its artifact exactly once per attempt *)
        let arts : (string, Backend.compiled) Hashtbl.t = Hashtbl.create 4 in
        let compiled_for (b : Backend.t) : Backend.compiled =
          match Hashtbl.find_opt arts b.Backend.schema with
          | Some c -> c
          | None ->
            let codec =
              {
                Cache.enc = (fun (c : Backend.compiled) -> c.Backend.encode ());
                dec = (fun s -> b.Backend.decode m s);
              }
            in
            let c =
              Cache.get_or_compile cache
                ~digest:(digest ^ "+" ^ b.Backend.schema)
                ~codec
                ~compile:(fun () -> b.Backend.compile m)
            in
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
          with e -> raise (Error.In_vm (vm, e))
        in
        let zk = List.map zk_of backends in
        (* the CPU contrast model runs off the first backend that can
           drive it (an RV32 instruction stream); a zk-native-only sweep
           simply has no CPU column *)
        let run_cpu =
          if not with_cpu then None
          else
            List.find_map
              (fun (b : Backend.t) -> (compiled_for b).Backend.measure_cpu)
              backends
        in
        let cpu, degraded =
          match run_cpu with
          | None -> (None, None)
          | Some run -> (
            match run ~fuel () with
            | m -> (Some m, None)
            | exception Zkopt_riscv.Emulator.Out_of_fuel f ->
              (* transient: let the retry policy escalate the budget *)
              raise (Error.In_vm ("cpu", Zkopt_riscv.Emulator.Out_of_fuel f))
            | exception e ->
              (* deterministic CPU-model failure: degrade gracefully and
                 keep the zkVM metrics rather than losing the cell *)
              (None, Some (Printexc.to_string e)))
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

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

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
  let points = Hashtbl.create 4096 in
  let resumed = ref 0 in
  (match cfg.checkpoint with
  | Some path when cfg.resume ->
    List.iter
      (fun (p : Cell.point) ->
        Hashtbl.replace points (p.Cell.program, p.Cell.profile) p;
        incr resumed;
        (* resumed points stream too, so a subscriber that attaches
           after a restart still sees the full row sequence *)
        Option.iter (fun f -> f p) cfg.on_point)
      (Rowlog.load path ~decode:Checkpoint.decode_point)
  | _ -> ());
  (* Pending cells in the canonical (program-major, profile-minor)
     order.  [limit] slices a deterministic prefix of this order, so a
     limited parallel run measures exactly the cells a limited
     sequential run would. *)
  let pending =
    List.concat_map
      (fun (w : Zkopt_workloads.Workload.t) ->
        List.filter_map
          (fun profile ->
            let key = (w.Zkopt_workloads.Workload.name, Profile.name profile) in
            if Hashtbl.mem points key then None else Some (w, profile))
          profiles)
      programs
  in
  let pending, completed =
    match cfg.limit with
    | Some n when List.length pending > n -> (take n pending, false)
    | _ -> (pending, true)
  in
  let cache =
    match cfg.cache with Some c -> c | None -> Cache.create ()
  in
  let stats0 = Cache.stats cache in
  let log =
    Option.map
      (Rowlog.open_ ~header:Checkpoint.version ~fresh:(not cfg.resume))
      cfg.checkpoint
  in
  (* Shared mutable sweep state; [mu] guards all of it plus [points]. *)
  let mu = Mutex.create () in
  let quarantined = ref [] in
  let nquarantined = ref 0 in
  let degraded = ref [] in
  let executed = ref 0 in
  let retries = ref 0 in
  let total = List.length programs * List.length profiles in
  let quarantine (err : Error.t) =
    Mutex.lock mu;
    quarantined := err :: !quarantined;
    incr nquarantined;
    if cfg.progress then
      Printf.eprintf "  sweep: QUARANTINE %s\n%!" (Error.to_string err);
    let burst =
      if !nquarantined > cfg.failure_budget then Some (List.rev !quarantined)
      else None
    in
    Mutex.unlock mu;
    match burst with
    | Some errs -> raise (Budget_exceeded errs)
    | None -> ()
  in
  let stopped = ref false in
  let process_cell ((w : Zkopt_workloads.Workload.t), profile) =
    let wname = w.Zkopt_workloads.Workload.name in
    let pname = Profile.name profile in
    let coord = { Error.program = wname; profile = pname; vm = "-" } in
    let result =
      Cell.protect ~coord (fun () -> measure_cell cfg cache w profile)
    in
    (match result with
    | Error err -> quarantine err
    | Ok (p, attempts, deg) -> (
      Mutex.lock mu;
      retries := !retries + attempts - 1;
      Option.iter
        (fun d ->
          degraded := ({ coord with Error.vm = "cpu" }, d) :: !degraded)
        deg;
      (* the baseline point is stable here: baseline cells all complete
         in wave 1, before any non-baseline cell runs *)
      let baseline = Hashtbl.find_opt points (wname, "baseline") in
      Mutex.unlock mu;
      (* differential checksum oracles: every backend must agree with
         the head backend within the cell, and every profile must
         preserve the program's baseline checksum *)
      let head, others =
        match p.Cell.zk with h :: t -> (h, t) | [] -> assert false
      in
      let diverging =
        List.find_opt
          (fun (z : Measure.zk_metrics) ->
            not (Int64.equal head.Measure.exit_value z.Measure.exit_value))
          others
      in
      match diverging with
      | Some z ->
        quarantine
          {
            Error.coord = { coord with Error.vm = z.Measure.vm };
            kind =
              Error.Miscompile
                {
                  expected = head.Measure.exit_value;
                  got = z.Measure.exit_value;
                  oracle = head.Measure.vm ^ "-vs-" ^ z.Measure.vm;
                };
          }
      | None -> (
        match baseline with
        | Some (base : Cell.point)
          when (not (String.equal pname "baseline"))
               && not
                    (Int64.equal
                       (List.hd base.Cell.zk).Measure.exit_value
                       head.Measure.exit_value) ->
          quarantine
            {
              Error.coord = coord;
              kind =
                Error.Miscompile
                  {
                    expected = (List.hd base.Cell.zk).Measure.exit_value;
                    got = head.Measure.exit_value;
                    oracle = "baseline-differential";
                  };
            }
        | _ ->
          Mutex.lock mu;
          Hashtbl.replace points (wname, pname) p;
          Mutex.unlock mu;
          Option.iter
            (fun l -> Rowlog.append l (Checkpoint.encode_point p))
            log;
          Option.iter (fun f -> f p) cfg.on_point)));
    Mutex.lock mu;
    incr executed;
    let report =
      if cfg.progress && !executed mod 200 = 0 then
        Some (Hashtbl.length points, !executed)
      else None
    in
    Mutex.unlock mu;
    match report with
    | Some (done_, ex) ->
      Printf.eprintf "  sweep: %d/%d (this run: %d)\n%!" done_ total ex
    | None -> ()
  in
  (* every queued cell polls the cancellation hook first: a drained run
     skips the remainder (no rows) so a later resume picks them up *)
  let process cell () =
    if cfg.stop () then begin
      Mutex.lock mu;
      stopped := true;
      Mutex.unlock mu
    end
    else process_cell cell
  in
  (* Two waves: baselines first so the baseline-differential oracle sees
     a program's baseline checksum (when measured at all) regardless of
     how the scheduler interleaves the rest. *)
  let wave1, wave2 =
    List.partition
      (fun (_, profile) -> String.equal (Profile.name profile) "baseline")
      pending
  in
  let pool, owned_pool =
    match cfg.pool with
    | Some p -> (p, false)  (* shared service pool: never shut down *)
    | None -> (Pool.create ~jobs:cfg.jobs, true)
  in
  let finish () =
    if owned_pool then Pool.shutdown pool;
    Option.iter Rowlog.close log
  in
  (try
     List.iter (fun cell -> Pool.submit pool (process cell)) wave1;
     Pool.wait pool;
     List.iter (fun cell -> Pool.submit pool (process cell)) wave2;
     Pool.wait pool
   with e ->
     finish ();
     raise e);
  finish ();
  {
    points;
    programs;
    quarantined = List.rev !quarantined;
    degraded = List.rev !degraded;
    executed = !executed;
    resumed = !resumed;
    retries = !retries;
    completed = completed && not !stopped;
    cache_stats = Cache.sub_stats (Cache.stats cache) stats0;
  }
