(** Domain pool with per-worker queues.

    [jobs] worker domains each own a [Stdlib.Queue]; submitted tasks are
    dealt round-robin across the queues, a worker drains its own queue
    in submission order and, when it runs dry, takes the front of the
    next non-empty sibling queue.  All queues share one mutex/condition
    pair — tasks in this codebase are milliseconds of compile + simulate
    work, so lock traffic is noise — which keeps the scheduler small
    enough to reason about the invariants that matter:

    - every submitted task runs exactly once (no lost or duplicated
      work), unless a task raises first;
    - the first exception a task raises poisons the current wave:
      every worker's queue is cleared, in-flight tasks finish, and
      {!wait} re-raises it on the submitting domain;
    - poison is scoped to the wave, not the pool: {!wait} clears it
      after re-raising and the workers stay alive, so the same pool
      serves the next wave — a long-running service multiplexes many
      independent jobs onto one warm set of domains and a failed job
      cannot brick the pool for the jobs behind it;
    - with [jobs = 1] tasks execute in exact submission order, so a
      1-worker pool reproduces the old sequential sweep behavior.

    One queue per worker, not one shared FIFO: dealing round-robin lets
    the workers drift apart in the plan, while a shared FIFO keeps them
    on adjacent cells, which race on one artifact's measurement memo
    and execute its guest twice.

    The pool is reusable across waves: [submit]+[wait] any number of
    times, then [shutdown] to join the domains. *)

type task = unit -> unit

type t = {
  jobs : int;
  mu : Mutex.t;
  work : Condition.t;  (** new work, poison, or shutdown *)
  idle : Condition.t;  (** all submitted work finished, or poison *)
  queues : task Queue.t array;  (** one per worker *)
  mutable rr : int;  (** round-robin submission cursor *)
  mutable unfinished : int;  (** submitted tasks not yet completed *)
  mutable stop : bool;
  mutable poison : exn option;  (** first task exception, re-raised by wait *)
  mutable workers : unit Domain.t list;
}

let recommended_jobs () = Domain.recommended_domain_count ()

(** Coarse host fingerprint for keying throughput baselines: numbers
    measured on a different machine class must not gate this one.
    Word size and core count are the two axes that actually move
    cells/s between hosts we run on. *)
let machine_fingerprint () =
  Printf.sprintf "%s-w%d-c%d" Sys.os_type Sys.word_size
    (Domain.recommended_domain_count ())

(* Poison the current wave: queued tasks are dropped, the exception is
   parked for [wait], and the workers stay alive for the next wave. *)
let poison_locked pool e =
  if pool.poison = None then begin
    pool.poison <- Some e;
    (* queued tasks will never run; stop counting them as pending *)
    Array.iter
      (fun q ->
        pool.unfinished <- pool.unfinished - Queue.length q;
        Queue.clear q)
      pool.queues;
    if pool.unfinished = 0 then Condition.broadcast pool.idle
  end

(* Called with [pool.mu] held: the front of the worker's own queue,
   else the front of the next non-empty sibling queue. *)
let take_locked pool id =
  let rec scan k =
    if k = pool.jobs then None
    else
      match Queue.take_opt pool.queues.((id + k) mod pool.jobs) with
      | Some _ as t -> t
      | None -> scan (k + 1)
  in
  scan 0

let worker pool id =
  (* called with [pool.mu] held *)
  let rec next () =
    if pool.stop then None
    else
      match take_locked pool id with
      | Some _ as t -> t
      | None ->
        Condition.wait pool.work pool.mu;
        next ()
  in
  let rec loop () =
    match Mutex.protect pool.mu next with
    | None -> ()
    | Some task ->
      let failed = match task () with () -> None | exception e -> Some e in
      Mutex.protect pool.mu (fun () ->
          Option.iter (poison_locked pool) failed;
          pool.unfinished <- pool.unfinished - 1;
          if pool.unfinished = 0 then Condition.broadcast pool.idle);
      loop ()
  in
  loop ()

let create ~jobs : t =
  let jobs = max 1 jobs in
  let pool =
    {
      jobs;
      mu = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      queues = Array.init jobs (fun _ -> Queue.create ());
      rr = 0;
      unfinished = 0;
      stop = false;
      poison = None;
      workers = [];
    }
  in
  pool.workers <- List.init jobs (fun id -> Domain.spawn (fun () -> worker pool id));
  pool

(** Submit a task.  Dropped silently if the pool is already poisoned or
    shut down (the poisoning exception still reaches the caller through
    {!wait}). *)
let submit pool task =
  Mutex.protect pool.mu (fun () ->
      if (not pool.stop) && pool.poison = None then begin
        Queue.push task pool.queues.(pool.rr);
        pool.rr <- (pool.rr + 1) mod pool.jobs;
        pool.unfinished <- pool.unfinished + 1;
        Condition.signal pool.work
      end)

(** Block until the pool is quiescent (queued tasks done or dropped,
    in-flight tasks finished); re-raises the first exception any task
    raised and clears it, leaving the pool ready for the next wave. *)
let wait pool =
  Mutex.lock pool.mu;
  while pool.unfinished > 0 do
    Condition.wait pool.idle pool.mu
  done;
  let p = pool.poison in
  pool.poison <- None;
  Mutex.unlock pool.mu;
  match p with Some e -> raise e | None -> ()

(** Join the worker domains.  Idempotent. *)
let shutdown pool =
  Mutex.lock pool.mu;
  pool.stop <- true;
  Condition.broadcast pool.work;
  let workers = pool.workers in
  pool.workers <- [];
  Mutex.unlock pool.mu;
  List.iter Domain.join workers

(** [run ~jobs tasks]: one-shot pool over a task list. *)
let run ~jobs (tasks : task list) =
  let pool = create ~jobs in
  Fun.protect
    ~finally:(fun () -> shutdown pool)
    (fun () ->
      List.iter (submit pool) tasks;
      wait pool)
