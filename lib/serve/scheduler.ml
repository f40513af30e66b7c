(** The service scheduler: one warm set of domains and one warm compile
    cache, multiplexed across every client's jobs.

    The scheduler owns the expensive state a one-shot CLI run rebuilds
    from scratch every time — the {!Zkopt_exec.Pool} of worker domains
    and the content-addressed {!Zkopt_exec.Cache} (cell inputs → module
    digest → artifact, with each artifact's kept runs, in memory over
    the shared [_zkcache/] disk store, so a resubmitted sweep or
    profile cell runs no pipeline, and a sweep cell no guest even after
    a restart) —
    and executes jobs pulled from a {!Jobq} priority queue on a single
    dispatcher thread.  Jobs run one at a time; {e cells} within a job
    run in parallel on the pool.  Each job's per-cell rows stream to
    its subscribers in plan order and to a per-job checkpoint file,
    so results survive the daemon and clients can attach late.

    {b Restart contract.}  Submissions append one line to an
    append-only registry ([jobs.reg], a {!Zkopt_exec.Rowlog} with
    terminal-"." rows like the campaign checkpoint); terminal states
    append a second line.  A job interrupted by a drain or a kill has no
    terminal line, so the next daemon over the same state directory
    re-enqueues it and the job's harness/campaign checkpoint resumes it
    cell-exactly — the resumed rows are byte-identical to an
    uninterrupted run's, the same kill-safety contract the one-shot
    sweep has.

    {b One exec.}  Every job kind runs through {!exec}.  {!Job} builds
    each kind's engine config from the spec, as it does for the one-shot
    CLI; per kind {!run_spec} adds only the daemon's environment (shared
    pool and caches, the job's checkpoint, [stop], [on_row], the
    client's remaining budget) and the summary fields.  The budget
    pre-check, the mapping from outcome to state and the ledger spend
    are shared.

    {b Failure budgets.}  A submission may declare a per-client failure
    budget.  Quarantined cells (sweeps), divergences (fuzz) and every
    crashed job spend from one ledger per client tag; once a client's
    ledger is exhausted, its queued and future jobs fail fast instead of
    burning pool time — the harness quarantine generalized across
    jobs. *)

module H = Zkopt_harness.Harness
module Checkpoint = Zkopt_harness.Checkpoint
module Cell = Zkopt_harness.Cell
module Campaign = Zkopt_fuzz.Campaign
module Pool = Zkopt_exec.Pool
module Rowlog = Zkopt_exec.Rowlog
module Cache = Zkopt_exec.Cache
module Backend = Zkopt_backend.Backend
module Workload = Zkopt_workloads.Workload
module Autotune = Zkopt_autotune.Autotune
module Ssweep = Zkopt_settle.Ssweep
module Json = Zkopt_report.Json
open Zkopt_core

type jobrec = {
  job : Job.t;
  mutable state : Job.state;
  cancel : bool Atomic.t;
  mutable rows : string list;  (** reversed row log, for watch replay *)
  mutable nrows : int;
  mutable sinks : (string * (Proto.event -> bool)) list;
      (** (session tag, send); a sink returning [false] is dropped *)
  mutable summary : Json.t option;
      (** the terminal summary, once this daemon finished the job: a
          watcher that attaches after the end (a warm job can finish
          before its submitter's watch lands) still receives it *)
}

type t = {
  dir : string;
  pool : Pool.t;
  pool_jobs : int;
  cache : Backend.compiled Cache.t;
  tune_cache : Zkopt_ir.Modul.t Cache.t;
      (** autotune prefix-module cache, shared across tune jobs (memory
          only: modules are mutable graphs, never disk-cached) *)
  q : jobrec Jobq.t;
  jobs : (string, jobrec) Hashtbl.t;
  mutable order : string list;  (** job ids, newest first *)
  mu : Mutex.t;
  reg : Rowlog.t;  (** append-only job registry *)
  spent : (string, int) Hashtbl.t;  (** failure-budget ledger per client *)
  mutable next_id : int;
  mutable draining : bool;
  log : string -> unit;
  mutable dispatcher : Thread.t option;
}

let ckpt_path t (jr : jobrec) =
  Filename.concat t.dir (jr.job.Job.id ^ ".ckpt")

(* ---- registry codec -------------------------------------------------- *)

(* `J <id> <client> <priority> <budget|-> <json spec> .` on submission,
   `D <id> <state> .` on a terminal state.  JSON escapes tabs, so the
   spec field never collides with the framing; the terminal "." makes a
   kill-truncated line undecodable rather than silently short. *)

let reg_name = "jobs.reg"

let encode_submit (j : Job.t) : string =
  String.concat "\t"
    [
      "J";
      j.Job.id;
      j.Job.client;
      string_of_int j.Job.priority;
      (match j.Job.budget with Some b -> string_of_int b | None -> "-");
      Json.to_string (Job.spec_to_json j.Job.spec);
      ".";
    ]

let encode_terminal (id : string) (st : Job.state) : string =
  let tag =
    match st with
    | Job.Finished -> "done"
    | Job.Cancelled -> "cancelled"
    | Job.Failed msg ->
      "failed:" ^ String.map (function '\t' | '\n' -> ' ' | c -> c) msg
    | Job.Queued | Job.Running -> invalid_arg "encode_terminal: not terminal"
  in
  String.concat "\t" [ "D"; id; tag; "." ]

type reg_line =
  | Submitted of Job.t
  | Terminal of string * Job.state

let decode_line (line : string) : reg_line option =
  match String.split_on_char '\t' line with
  | [ "J"; id; client; prio; budget; spec; "." ] -> (
    match
      ( int_of_string_opt prio,
        Json.of_string spec |> Result.map Job.spec_of_json )
    with
    | Some priority, Ok (Ok spec) ->
      Some
        (Submitted
           {
             Job.id;
             client;
             priority;
             budget = int_of_string_opt budget;
             spec;
           })
    | _ -> None)
  | [ "D"; id; tag; "." ] ->
    let st =
      match tag with
      | "done" -> Some Job.Finished
      | "cancelled" -> Some Job.Cancelled
      | _ ->
        if String.length tag >= 7 && String.sub tag 0 7 = "failed:" then
          Some (Job.Failed (String.sub tag 7 (String.length tag - 7)))
        else None
    in
    Option.map (fun st -> Terminal (id, st)) st
  | _ -> None

(* ---- construction / restart ------------------------------------------ *)

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Sys.mkdir p 0o755 with Sys_error _ -> ()
    end
  in
  go path

let id_num (id : string) : int =
  match String.split_on_char '-' id with
  | [ "job"; n ] -> Option.value ~default:0 (int_of_string_opt n)
  | _ -> 0

(** Create a scheduler over [dir], reloading the job registry: jobs
    with no terminal line (queued or mid-run when the last daemon died)
    are re-enqueued in their original (priority, submission) order and
    resume from their checkpoints. *)
let create ~dir ~jobs ?(cache_dir = Some "_zkcache") ~log () : t =
  mkdir_p dir;
  let path = Filename.concat dir reg_name in
  let lines = Rowlog.load path ~decode:decode_line in
  let reg = Rowlog.open_ ~fresh:false path in
  let t =
    {
      dir;
      pool = Pool.create ~jobs;
      pool_jobs = jobs;
      cache = Cache.create ?dir:cache_dir ();
      tune_cache = Cache.create ~capacity:512 ();
      q = Jobq.create ();
      jobs = Hashtbl.create 32;
      order = [];
      mu = Mutex.create ();
      reg;
      spent = Hashtbl.create 8;
      next_id = 1;
      draining = false;
      log;
      dispatcher = None;
    }
  in
  List.iter
    (fun line ->
      match line with
      | Submitted j ->
        let jr =
          {
            job = j;
            state = Job.Queued;
            cancel = Atomic.make false;
            rows = [];
            nrows = 0;
            sinks = [];
            summary = None;
          }
        in
        Hashtbl.replace t.jobs j.Job.id jr;
        t.order <- j.Job.id :: t.order;
        t.next_id <- max t.next_id (id_num j.Job.id + 1)
      | Terminal (id, st) -> (
        match Hashtbl.find_opt t.jobs id with
        | Some jr -> jr.state <- st
        | None -> ()))
    lines;
  (* re-enqueue the survivors, oldest first within a priority *)
  List.iter
    (fun id ->
      let jr = Hashtbl.find t.jobs id in
      if jr.state = Job.Queued then begin
        Jobq.push t.q ~priority:jr.job.Job.priority jr;
        t.log
          (Printf.sprintf "serve: re-enqueued %s (%s) from registry" id
             (Job.kind_name jr.job.Job.spec))
      end)
    (List.rev t.order);
  t

(* ---- event fan-out --------------------------------------------------- *)

(* Send [ev] to every sink of [jr], dropping sinks whose client went
   away.  Called with [t.mu] held so replay and live rows interleave
   consistently per subscriber. *)
let emit_locked (jr : jobrec) (ev : Proto.event) =
  jr.sinks <- List.filter (fun (_, sink) -> sink ev) jr.sinks

let push_row t (jr : jobrec) (data : string) =
  Mutex.lock t.mu;
  jr.rows <- data :: jr.rows;
  jr.nrows <- jr.nrows + 1;
  emit_locked jr (Proto.Row { id = jr.job.Job.id; data });
  Mutex.unlock t.mu

(* ---- job execution --------------------------------------------------- *)

(* Remaining failure budget for this job, given what its client already
   spent, or [None] when the job declared none. *)
let remaining_budget t (jr : jobrec) : int option =
  match jr.job.Job.budget with
  | None -> None
  | Some b ->
    let used =
      Option.value ~default:0 (Hashtbl.find_opt t.spent jr.job.Job.client)
    in
    Some (b - used)

let spend t (jr : jobrec) (n : int) =
  if n > 0 then begin
    Mutex.lock t.mu;
    let used =
      Option.value ~default:0 (Hashtbl.find_opt t.spent jr.job.Job.client)
    in
    Hashtbl.replace t.spent jr.job.Job.client (used + n);
    Mutex.unlock t.mu
  end

type exec_result =
  | Completed of Json.t
  | Drained  (** interrupted by drain: no terminal record, resumes later *)
  | Was_cancelled
  | Crashed of string

(* The stop predicate every job polls at cell granularity. *)
let stop_for t (jr : jobrec) () = Atomic.get jr.cancel || t.draining

let interrupted t (jr : jobrec) : exec_result =
  if Atomic.get jr.cancel then Was_cancelled else if t.draining then Drained
  else Crashed "job stopped for no recorded reason"

let cache_stats_json (s : Cache.stats) ~resident : Json.t =
  Json.Obj
    [
      ("hits", Json.Int s.Cache.hits);
      ("disk_hits", Json.Int s.Cache.disk_hits);
      ("misses", Json.Int s.Cache.misses);
      ("evictions", Json.Int s.Cache.evictions);
      ("resident", Json.Int resident);
      ("hit_rate_pct", Json.Float (Cache.hit_rate_pct s));
    ]

(* What one job's engine run reports to {!exec}. *)
type run = {
  summary : (string * Json.t) list;
  completed : bool;  (** false iff the engine left work undone *)
  spent : int;  (** failure-budget units the run used *)
}

(* Run [spec]'s engine over the shared pool and caches, streaming every
   row to [on_row] and resuming from the job's checkpoint: {!Job} builds
   the engine config, this adds the daemon's environment. *)
let run_spec t (jr : jobrec) ~stop ~on_row (spec : Job.spec) : run =
  let checkpoint = Some (ckpt_path t jr) in
  match spec with
  | Job.Sweep s ->
    let cfg = Job.sweep_config s in
    let stats0 = Cache.stats t.cache in
    let o =
      H.run
        {
          cfg with
          H.checkpoint;
          failure_budget =
            Option.value (remaining_budget t jr) ~default:cfg.H.failure_budget;
          cache = Some t.cache;
          pool = Some t.pool;
          on_row;
          stop;
        }
    in
    {
      summary =
        [
          ("points", Json.Int (Hashtbl.length o.H.points));
          ("resumed", Json.Int o.H.resumed);
          ("executed", Json.Int o.H.executed);
          ("quarantined", Json.Int (List.length o.H.quarantined));
          ("retries", Json.Int o.H.retries);
          ("completed", Json.Bool o.H.completed);
          ( "cache",
            cache_stats_json
              (Cache.sub_stats (Cache.stats t.cache) stats0)
              ~resident:(Cache.resident t.cache) );
        ];
      completed = o.H.completed;
      spent = List.length o.H.quarantined;
    }
  | Job.Profile_cell c ->
    let w, profile, b = Job.cell_config c in
    let r =
      H.with_module t.cache ~size:(Job.size c.quick) w profile (fun ~fp m ->
          (Backend.compile_cached ~cache:t.cache b ~fp m).Backend.measure
            ~vm:b.Backend.name ())
    in
    (match r.Backend.accounting with
    | Ok () -> ()
    | Error msg -> failwith ("accounting: " ^ msg));
    on_row
      (Checkpoint.encode_point
         {
           Cell.program = w.Workload.name;
           suite = w.Workload.suite;
           profile = Profile.name profile;
           zk = [ r.Backend.zk ];
           cpu = None;
         });
    {
      summary =
        [
          ("program", Json.Str c.program);
          ("profile", Json.Str (Profile.name profile));
          ("vm", Json.Str c.vm);
          ("cycles", Json.Int r.Backend.zk.Measure.cycles);
          ("segments", Json.Int r.Backend.zk.Measure.segments);
        ];
      completed = true;
      spent = 0;
    }
  | Job.Autotune a ->
    let cfg, target = Job.autotune_config ~cache:t.cache a in
    let o =
      Autotune.search
        {
          cfg with
          Autotune.pool = Some t.pool;
          prefix_cache = Some t.tune_cache;
          checkpoint;
          resume = true;
          on_row;
          stop;
        }
        ~targets:[ target ]
    in
    let cs = o.Autotune.cache_stats in
    {
      summary =
        (match o.Autotune.result with
        | None -> [] (* stopped before the first generation *)
        | Some ga ->
          let best = ga.Autotune.best in
          [
            ("program", Json.Str a.program);
            ("vm", Json.Str a.vm);
            ("evaluations", Json.Int ga.Autotune.evaluations);
            ("resumed", Json.Int o.Autotune.resumed);
            ("generations", Json.Int (List.length ga.Autotune.history));
            ("best_cycles", Json.Int best.Autotune.fitness);
            ( "best_genome",
              Json.Arr (List.map (fun p -> Json.Str p) best.Autotune.genome) );
            ("dedup_hits", Json.Int cs.Autotune.dedup_hits);
            ("pruned", Json.Int cs.Autotune.pruned);
            ("measured", Json.Int cs.Autotune.measured);
            ( "prefix_cache",
              cache_stats_json cs.Autotune.prefix
                ~resident:(Cache.resident t.tune_cache) );
          ]);
      completed = o.Autotune.completed;
      spent = 0;
    }
  | Job.Fuzz f ->
    let s =
      Campaign.run
        {
          (Job.fuzz_config f) with
          Campaign.checkpoint;
          resume = true;
          failure_budget = remaining_budget t jr;
          pool = Some t.pool;
          on_row;
          stop;
        }
    in
    {
      summary =
        [
          ("planned", Json.Int s.Campaign.planned);
          ("resumed", Json.Int s.Campaign.resumed);
          ("ran", Json.Int s.Campaign.ran);
          ("agreed", Json.Int s.Campaign.agreed);
          ("diverged", Json.Int (List.length s.Campaign.findings));
          ("budget_hit", Json.Bool s.Campaign.budget_hit);
        ];
      completed = s.Campaign.resumed + s.Campaign.ran = s.Campaign.planned;
      spent = List.length s.Campaign.findings;
    }
  | Job.Settle s ->
    let o =
      Ssweep.run
        {
          (Job.settle_config s) with
          Ssweep.pool = Some t.pool;
          cache = Some t.cache;
          checkpoint;
          on_row;
          stop;
        }
    in
    {
      summary =
        [
          ("rows", Json.Int (List.length o.Ssweep.rows));
          ("cells", Json.Int o.Ssweep.cells);
          ("resumed", Json.Int o.Ssweep.replayed);
          ("completed", Json.Bool o.Ssweep.completed);
        ];
      completed = o.Ssweep.completed;
      spent = 0;
    }

(* Run one job and map its outcome to a state.  Every crash spends one
   unit of the client's ledger, except a sweep over its failure budget,
   which spends the cells it quarantined. *)
let exec t (jr : jobrec) : exec_result =
  match remaining_budget t jr with
  | Some b when b <= 0 ->
    Crashed
      (Printf.sprintf "client %S failure budget exhausted" jr.job.Job.client)
  | _ -> (
    let stop = stop_for t jr in
    match run_spec t jr ~stop ~on_row:(push_row t jr) jr.job.Job.spec with
    | r ->
      spend t jr r.spent;
      if (not r.completed) && stop () then interrupted t jr
      else Completed (Json.Obj r.summary)
    | exception H.Budget_exceeded errs ->
      spend t jr (List.length errs);
      Crashed
        (Printf.sprintf "failure budget exceeded after %d quarantined cells"
           (List.length errs))
    | exception e ->
      spend t jr 1;
      Crashed (Printexc.to_string e))

(* ---- dispatcher ------------------------------------------------------ *)

(* Record a terminal state (registry line + event fan-out). *)
let finish_job t (jr : jobrec) (st : Job.state) (summary : Json.t) =
  Mutex.lock t.mu;
  jr.state <- st;
  jr.summary <- Some summary;
  Rowlog.append t.reg (encode_terminal jr.job.Job.id st);
  let ev =
    match st with
    | Job.Failed msg -> Proto.Err { msg = jr.job.Job.id ^ ": " ^ msg }
    | _ -> Proto.Done { id = jr.job.Job.id; summary }
  in
  emit_locked jr ev;
  jr.sinks <- [];
  Mutex.unlock t.mu;
  t.log
    (Printf.sprintf "serve: %s %s (%d rows)" jr.job.Job.id
       (Job.state_name st) jr.nrows)

let state_json (st : Job.state) : Json.t =
  match st with
  | Job.Failed msg ->
    Json.Obj [ ("state", Json.Str "failed"); ("error", Json.Str msg) ]
  | st -> Json.Obj [ ("state", Json.Str (Job.state_name st)) ]

let rec dispatch_loop t =
  match Jobq.pop t.q with
  | None -> () (* queue closed: drained *)
  | Some jr ->
    if t.draining then () (* popped entry stays registered; resumes later *)
    else if Atomic.get jr.cancel then begin
      finish_job t jr Job.Cancelled (state_json Job.Cancelled);
      dispatch_loop t
    end
    else begin
      Mutex.lock t.mu;
      jr.state <- Job.Running;
      Mutex.unlock t.mu;
      t.log
        (Printf.sprintf "serve: running %s (%s, client %s)" jr.job.Job.id
           (Job.kind_name jr.job.Job.spec)
           jr.job.Job.client);
      (match exec t jr with
      | Completed summary -> finish_job t jr Job.Finished summary
      | Was_cancelled -> finish_job t jr Job.Cancelled (state_json Job.Cancelled)
      | Crashed msg -> finish_job t jr (Job.Failed msg) (state_json (Job.Failed msg))
      | Drained ->
        (* no terminal record: the restart re-enqueues and the job's
           checkpoint resumes it exactly where this daemon stopped *)
        Mutex.lock t.mu;
        jr.state <- Job.Queued;
        Mutex.unlock t.mu);
      dispatch_loop t
    end

let start t =
  match t.dispatcher with
  | Some _ -> invalid_arg "Scheduler.start: already started"
  | None -> t.dispatcher <- Some (Thread.create dispatch_loop t)

(* ---- client-facing operations ---------------------------------------- *)

let submit t ~client ?(priority = 10) ?budget (spec : Job.spec) :
    (string, string) result =
  Mutex.lock t.mu;
  if t.draining then begin
    Mutex.unlock t.mu;
    Error "daemon is draining"
  end
  else begin
    let id = Printf.sprintf "job-%d" t.next_id in
    t.next_id <- t.next_id + 1;
    let job = { Job.id; client; priority; budget; spec } in
    let jr =
      {
        job;
        state = Job.Queued;
        cancel = Atomic.make false;
        rows = [];
        nrows = 0;
        sinks = [];
        summary = None;
      }
    in
    Hashtbl.replace t.jobs id jr;
    t.order <- id :: t.order;
    Rowlog.append t.reg (encode_submit job);
    (* push before unlocking: a [drain] then closes the queue only after
       this entry is in it (lock order: [t.mu], then the queue's) *)
    Jobq.push t.q ~priority jr;
    Mutex.unlock t.mu;
    Ok id
  end

(** Cancel a job: queued jobs are discarded when the dispatcher reaches
    them, the running job stops at its next cell boundary.  Cancelling
    an already-terminal job is a no-op returning [false]. *)
let cancel t (id : string) : bool =
  Mutex.lock t.mu;
  let r =
    match Hashtbl.find_opt t.jobs id with
    | Some jr when jr.state = Job.Queued || jr.state = Job.Running ->
      Atomic.set jr.cancel true;
      true
    | _ -> false
  in
  Mutex.unlock t.mu;
  r

(** Subscribe [sink] (tagged [sid]) to a job's stream: already-produced
    rows replay first, then live rows, then the terminal event — all in
    a consistent order.  A terminal job replays rows and its terminal
    event immediately. *)
let watch t ~sid (id : string) (sink : Proto.event -> bool) :
    (unit, string) result =
  Mutex.lock t.mu;
  let r =
    match Hashtbl.find_opt t.jobs id with
    | None -> Error (Printf.sprintf "no such job %S" id)
    | Some jr ->
      let replay_ok =
        List.for_all
          (fun data -> sink (Proto.Row { id; data }))
          (List.rev jr.rows)
      in
      (match jr.state with
      | Job.Queued | Job.Running ->
        if replay_ok then jr.sinks <- (sid, sink) :: jr.sinks
      | Job.Finished | Job.Cancelled ->
        let summary = Option.value jr.summary ~default:(state_json jr.state) in
        ignore (sink (Proto.Done { id; summary }))
      | Job.Failed msg -> ignore (sink (Proto.Err { msg = id ^ ": " ^ msg })));
      Ok ()
  in
  Mutex.unlock t.mu;
  r

(** Drop every sink tagged [sid] and cancel the listed jobs — the
    disconnect path: a client that went away takes its watched jobs
    with it, cleanly. *)
let detach t ~sid ~(cancel_jobs : string list) =
  Mutex.lock t.mu;
  Hashtbl.iter
    (fun _ jr ->
      jr.sinks <- List.filter (fun (s, _) -> not (String.equal s sid)) jr.sinks)
    t.jobs;
  Mutex.unlock t.mu;
  List.iter (fun id -> ignore (cancel t id)) cancel_jobs

let job_json (jr : jobrec) : Json.t =
  Json.Obj
    [
      ("id", Json.Str jr.job.Job.id);
      ("kind", Json.Str (Job.kind_name jr.job.Job.spec));
      ("client", Json.Str jr.job.Job.client);
      ("priority", Json.Int jr.job.Job.priority);
      ("state", Json.Str (Job.state_name jr.state));
      ("rows", Json.Int jr.nrows);
    ]

(** The status surface: every known job (submission order) plus the
    shared-cache counters ({!Zkopt_exec.Cache.stats}: hit/miss/evict and
    residency) and pool shape — the warm-state telemetry `zkbench
    status` prints. *)
let status_json t : Json.t =
  Mutex.lock t.mu;
  let jobs =
    List.rev_map (fun id -> job_json (Hashtbl.find t.jobs id)) t.order
  in
  let draining = t.draining in
  Mutex.unlock t.mu;
  let s = Cache.stats t.cache in
  Json.Obj
    [
      ("jobs", Json.Arr jobs);
      ("queued", Json.Int (Jobq.length t.q));
      ("pool_jobs", Json.Int t.pool_jobs);
      ("draining", Json.Bool draining);
      ("cache", cache_stats_json s ~resident:(Cache.resident t.cache));
    ]

(** Graceful drain: refuse new submissions, stop the running job at its
    next cell boundary (checkpointed, no terminal record), join the
    dispatcher, and release the pool.  Everything unfinished resumes on
    the next daemon over this state directory. *)
let drain t =
  Mutex.lock t.mu;
  t.draining <- true;
  Mutex.unlock t.mu;
  Jobq.close t.q;
  (match t.dispatcher with Some th -> Thread.join th | None -> ());
  t.dispatcher <- None;
  Pool.shutdown t.pool;
  Rowlog.close t.reg
