(** The zkbench service daemon: a unix-domain-socket front end over the
    {!Scheduler}.

    One accept-loop thread hands each connection to a session thread
    that reads newline-delimited requests ({!Proto}), dispatches them
    into the shared scheduler, and dies quietly when its client does.
    Robustness posture:

    - [SIGPIPE] is ignored process-wide, so a client that hangs up
      mid-stream surfaces as [EPIPE] on its own session's writes (a
      clean per-client cancel), never as process death.
    - A disconnect cancels exactly the jobs that connection submitted
      with [watch = true] — fire-and-forget submissions keep running.
    - [SIGTERM]/[SIGINT] trigger a graceful drain: the running job
      stops at its next cell boundary with its checkpoint flushed and
      no terminal registry record, so the next daemon over the same
      state directory resumes it byte-identically.

    {!start}/{!stop} run the daemon on background threads for
    in-process tests; {!run} is the blocking CLI entry point. *)

module Json = Zkopt_report.Json

type t = {
  sched : Scheduler.t;
  sock_path : string;
  listen_fd : Unix.file_descr;
  mutable accept_thread : Thread.t option;
  mutable sessions : (string * Session.t) list;
  sess_mu : Mutex.t;
  shutdown_req : bool Atomic.t;  (** set by SIGTERM or a shutdown request *)
  log : string -> unit;
}

let register_session t (s : Session.t) =
  Mutex.lock t.sess_mu;
  t.sessions <- (s.Session.sid, s) :: t.sessions;
  Mutex.unlock t.sess_mu

let forget_session t (s : Session.t) =
  Mutex.lock t.sess_mu;
  t.sessions <-
    List.filter (fun (sid, _) -> not (String.equal sid s.Session.sid)) t.sessions;
  Mutex.unlock t.sess_mu

(* ---- request dispatch ------------------------------------------------ *)

let handle_request t (s : Session.t) (line : string) =
  match Proto.decode_request line with
  | Error msg -> ignore (Session.send s (Proto.Err { msg }))
  | Ok (Proto.Submit { spec; priority; budget; watch }) -> (
    match
      Scheduler.submit t.sched ~client:s.Session.sid ~priority ?budget spec
    with
    | Error msg -> ignore (Session.send s (Proto.Err { msg }))
    | Ok id ->
      ignore (Session.send s (Proto.Ack { id }));
      if watch then begin
        s.Session.watched <- id :: s.Session.watched;
        ignore
          (Scheduler.watch t.sched ~sid:s.Session.sid id (Session.send s))
      end)
  | Ok (Proto.Cancel id) ->
    if Scheduler.cancel t.sched id then
      ignore (Session.send s (Proto.Ack { id }))
    else
      ignore
        (Session.send s
           (Proto.Err { msg = Printf.sprintf "cannot cancel %S" id }))
  | Ok Proto.Status ->
    ignore
      (Session.send s (Proto.Status_report (Scheduler.status_json t.sched)))
  | Ok (Proto.Watch id) -> (
    match Scheduler.watch t.sched ~sid:s.Session.sid id (Session.send s) with
    | Ok () -> ()
    | Error msg -> ignore (Session.send s (Proto.Err { msg })))
  | Ok Proto.Shutdown ->
    ignore (Session.send s (Proto.Ack { id = "shutdown" }));
    Atomic.set t.shutdown_req true

let session_loop t (s : Session.t) =
  register_session t s;
  let rec loop () =
    match Session.recv_line s with
    | Some line ->
      handle_request t s line;
      if s.Session.alive && not (Atomic.get t.shutdown_req) then loop ()
    | None -> ()
  in
  loop ();
  (* the client went away: its watched jobs go too.  Not on daemon
     shutdown — sessions torn down by a drain must leave their jobs
     queued (no terminal record) so the restart resumes them. *)
  let cancel_jobs =
    if Atomic.get t.shutdown_req then [] else s.Session.watched
  in
  Scheduler.detach t.sched ~sid:s.Session.sid ~cancel_jobs;
  forget_session t s;
  Session.close s

let accept_loop t =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
      let s = Session.create fd in
      ignore (Thread.create (session_loop t) s);
      loop ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
      () (* listening socket shut down: daemon is stopping *)
    | exception Unix.Unix_error _ ->
      if Atomic.get t.shutdown_req then () else loop ()
  in
  loop ()

(* ---- lifecycle ------------------------------------------------------- *)

(** Bind, listen, reload the registry, and start the scheduler
    dispatcher and the accept loop on background threads.  [dir] is the
    daemon's state directory (registry, job checkpoints); the socket
    lives at [dir ^ "/zkbench.sock"] unless [sock] overrides it.
    [cache_dir] is the compile cache's disk store, as in
    {!Scheduler.create} (default [Some "_zkcache"]). *)
let start ?(jobs = 4) ?sock ?cache_dir ?(log = ignore) ~dir () : t =
  (* a dead client must be an EPIPE on its session, not process death *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let sched = Scheduler.create ~dir ~jobs ?cache_dir ~log () in
  let sock_path =
    match sock with Some p -> p | None -> Filename.concat dir "zkbench.sock"
  in
  if Sys.file_exists sock_path then Sys.remove sock_path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX sock_path);
  Unix.listen listen_fd 16;
  let t =
    {
      sched;
      sock_path;
      listen_fd;
      accept_thread = None;
      sessions = [];
      sess_mu = Mutex.create ();
      shutdown_req = Atomic.make false;
      log;
    }
  in
  Scheduler.start sched;
  t.accept_thread <- Some (Thread.create accept_loop t);
  log (Printf.sprintf "serve: listening on %s (state %s, jobs %d)" sock_path
         dir jobs);
  t

(** Stop the daemon.  With [drain] (the default) the running job stops
    at its next cell boundary with its checkpoint flushed and no
    terminal registry record — the graceful SIGTERM path; the next
    daemon over the same state directory resumes it.  [~drain:false]
    simulates an abrupt kill for restart tests: the job is still halted
    at a cell boundary (in-process we cannot kill a thread mid-write;
    restart tests shear the checkpoint tail on top to model a torn
    write), but nothing is announced to connected clients. *)
let stop ?(drain = true) (t : t) =
  Atomic.set t.shutdown_req true;
  (* shut the listening socket down first (no new clients mid-drain);
     shutdown — not just close — is what wakes a blocked accept *)
  (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
   with Unix.Unix_error _ -> ());
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  t.accept_thread <- None;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Sys.remove t.sock_path with Sys_error _ -> ());
  (* both paths halt the scheduler (the dispatcher is a thread of this
     process and must not outlive the daemon); the interrupted job gets
     no terminal record either way, which is the resume contract *)
  Scheduler.drain t.sched;
  (* wake blocked session readers; each reader unwinds, detaches its
     sinks, and closes its own channel (see Session.interrupt) *)
  Mutex.lock t.sess_mu;
  let sessions = List.map snd t.sessions in
  Mutex.unlock t.sess_mu;
  List.iter Session.interrupt sessions;
  if drain then t.log "serve: drained and stopped"

(** Blocking CLI entry point: start, then run until a shutdown request
    or SIGTERM/SIGINT, then drain.  Polls the shutdown flag (signal
    handlers only set an atomic; all real work happens here). *)
let run ?(jobs = 4) ?sock ?(log = ignore) ~dir () =
  let t = start ~jobs ?sock ~log ~dir () in
  let request_stop _ = Atomic.set t.shutdown_req true in
  let restore =
    List.filter_map
      (fun sg ->
        try Some (sg, Sys.signal sg (Sys.Signal_handle request_stop))
        with Invalid_argument _ | Sys_error _ -> None)
      [ Sys.sigterm; Sys.sigint ]
  in
  while not (Atomic.get t.shutdown_req) do
    Thread.delay 0.1
  done;
  log "serve: shutdown requested, draining";
  stop t;
  List.iter (fun (sg, h) -> try Sys.set_signal sg h with _ -> ()) restore
