(** Sweep-service tests: priority-queue ordering properties (a full
    drain and pushes interleaved with pops, against a stable sort), wire
    protocol codec roundtrips (including the JSON parser the protocol
    rides on), and in-process daemon integration — two concurrent
    clients streaming disjoint jobs, warm-cache reuse across clients,
    disconnect-cancellation, and stop-mid-job restart with
    byte-identical resumed rows (plus a sheared checkpoint tail, the
    torn-write shape a real kill leaves). *)

module Job = Zkopt_serve.Job
module Jobq = Zkopt_serve.Jobq
module Proto = Zkopt_serve.Proto
module Daemon = Zkopt_serve.Daemon
module Client = Zkopt_serve.Client
module Scheduler = Zkopt_serve.Scheduler
module Json = Zkopt_report.Json

(* ---- priority queue -------------------------------------------------- *)

let drain_closed q =
  Jobq.close q;
  let rec go acc =
    match Jobq.pop q with Some v -> go (v :: acc) | None -> List.rev acc
  in
  go []

let qcheck_jobq_order =
  (* popping everything yields exactly the (priority, push-order) stable
     sort of what was pushed *)
  QCheck.Test.make ~name:"jobq pops in (priority, FIFO) order" ~count:200
    QCheck.(list (int_range 0 5))
    (fun prios ->
      let q = Jobq.create () in
      List.iteri (fun i p -> Jobq.push q ~priority:p (i, p)) prios;
      let expected =
        List.mapi (fun i p -> (i, p)) prios
        |> List.stable_sort (fun (_, a) (_, b) -> compare a b)
      in
      drain_closed q = expected)

let qcheck_jobq_interleaved =
  (* pushes land in a partly drained queue: every pop returns the head of
     the stable sort of the entries the model still holds; [None] pops
     only when the model holds an entry, so no pop blocks *)
  QCheck.Test.make ~name:"jobq interleaved push and pop = stable-sort model"
    ~count:200
    QCheck.(list_of_size Gen.(0 -- 200) (option ~ratio:0.6 (int_range 0 5)))
    (fun ops ->
      let q = Jobq.create () in
      let sorted = List.stable_sort (fun (_, a) (_, b) -> compare a b) in
      let step (model, n) = function
        | Some p ->
          Jobq.push q ~priority:p (n, p);
          (model @ [ (n, p) ], n + 1)
        | None -> (
          match sorted model with
          | [] -> (model, n)
          | head :: _ ->
            if Jobq.pop q <> Some head then
              QCheck.Test.fail_reportf "popped out of (priority, FIFO) order";
            (List.filter (fun e -> e <> head) model, n))
      in
      let model, _ = List.fold_left step ([], 0) ops in
      Jobq.length q = List.length model && drain_closed q = sorted model)

let test_jobq_blocking_and_close () =
  let q = Jobq.create () in
  let got = ref [] in
  let consumer =
    Thread.create
      (fun () ->
        let rec loop () =
          match Jobq.pop q with
          | Some v ->
            got := v :: !got;
            loop ()
          | None -> ()
        in
        loop ())
      ()
  in
  Jobq.push q ~priority:2 "b";
  Jobq.push q ~priority:1 "a";
  Thread.delay 0.05;
  Jobq.close q;
  Thread.join consumer;
  (* both consumed, and close woke the blocked pop with None *)
  Alcotest.(check (slist string compare))
    "all entries consumed" [ "a"; "b" ] !got;
  Alcotest.(check bool) "closed pop returns None" true (Jobq.pop q = None);
  Alcotest.check_raises "push after close rejected"
    (Invalid_argument "Jobq.push: queue is closed") (fun () ->
      Jobq.push q ~priority:0 "c")

(* ---- codecs ----------------------------------------------------------- *)

let spec_gen : Job.spec QCheck.Gen.t =
  let open QCheck.Gen in
  let name = oneofl [ "factorial"; "sha256"; "npb-lu"; "loop-sum" ] in
  let names = opt (list_size (int_range 1 3) name) in
  let profile = oneofl [ "baseline"; "-O2"; "licm"; "-O3(zkvm)" ] in
  let vm = oneofl [ "risc0"; "sp1"; "valida" ] in
  oneof
    [
      (let* programs = names in
       let* profiles = opt (list_size (int_range 1 3) profile) in
       let* quick = bool in
       let* backends = opt (list_size (int_range 1 2) vm) in
       let* limit = opt (int_range 1 100) in
       return (Job.Sweep { programs; profiles; quick; backends; limit }));
      (let* program = name in
       let* profile in
       let* vm in
       let* quick = bool in
       return (Job.Profile_cell { program; profile; vm; quick }));
      (let* program = name in
       let* iters = int_range 1 200 in
       let* vm in
       let* quick = bool in
       let* seed = int_range 1 1000 in
       let* population = int_range 1 32 in
       return (Job.Autotune { program; iters; vm; quick; seed; population }));
      (let* seed_lo = int_range 1 50 in
       let* span = int_range 0 50 in
       let* pipelines = list_size (int_range 1 3) profile in
       let* backends = opt (list_size (int_range 1 2) vm) in
       let* limit = opt (int_range 1 100) in
       return
         (Job.Fuzz
            { seed_lo; seed_hi = seed_lo + span; pipelines; backends; limit }));
    ]

let qcheck_spec_roundtrip =
  QCheck.Test.make ~name:"job spec JSON codec roundtrips" ~count:300
    (QCheck.make spec_gen)
    (fun spec -> Job.spec_of_json (Job.spec_to_json spec) = Ok spec)

(* a client that sends only the required fields gets the one default of
   every other field, the same value the CLI flag defaults to *)
let test_spec_defaults () =
  let decode text =
    match Json.of_string text with
    | Error e -> Alcotest.fail e
    | Ok j -> (
      match Job.spec_of_json j with
      | Ok spec -> spec
      | Error e -> Alcotest.fail e)
  in
  (match decode {|{"kind":"fuzz","seed_lo":1,"seed_hi":2}|} with
  | Job.Fuzz f ->
    Alcotest.(check (list string))
      "fuzz pipelines" [ "baseline"; "O3"; "zk-o3" ] f.pipelines
  | _ -> Alcotest.fail "not a fuzz spec");
  match decode {|{"kind":"autotune","program":"fibonacci"}|} with
  | Job.Autotune a -> Alcotest.(check int) "autotune iterations" 160 a.iters
  | _ -> Alcotest.fail "not an autotune spec"

let request_gen : Proto.request QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      (let* spec = spec_gen in
       let* priority = int_range 0 100 in
       let* budget = opt (int_range 0 64) in
       let* watch = bool in
       return (Proto.Submit { spec; priority; budget; watch }));
      map (fun n -> Proto.Cancel (Printf.sprintf "job-%d" n)) (int_range 1 99);
      return Proto.Status;
      map (fun n -> Proto.Watch (Printf.sprintf "job-%d" n)) (int_range 1 99);
      return Proto.Shutdown;
    ]

let qcheck_request_roundtrip =
  QCheck.Test.make ~name:"wire requests roundtrip" ~count:300
    (QCheck.make request_gen)
    (fun r -> Proto.decode_request (Proto.encode_request r) = Ok r)

let event_gen : Proto.event QCheck.Gen.t =
  let open QCheck.Gen in
  let id = map (Printf.sprintf "job-%d") (int_range 1 99) in
  let text =
    string_size ~gen:(oneofl [ 'a'; 'Z'; '0'; ' '; '"'; '\\'; '\t'; '\n' ])
      (int_range 0 24)
  in
  oneof
    [
      map (fun id -> Proto.Ack { id }) id;
      map (fun msg -> Proto.Err { msg }) text;
      (let* id in
       let* data = text in
       return (Proto.Row { id; data }));
      (let* id in
       let* n = int_range 0 5 in
       return
         (Proto.Done { id; summary = Json.Obj [ ("rows", Json.Int n) ] }));
      map (fun n -> Proto.Status_report (Json.Obj [ ("queued", Json.Int n) ]))
        (int_range 0 9);
    ]

let qcheck_event_roundtrip =
  QCheck.Test.make ~name:"wire events roundtrip" ~count:300
    (QCheck.make event_gen)
    (fun e -> Proto.decode_event (Proto.encode_event e) = Ok e)

let json_gen : Json.t QCheck.Gen.t =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map
          (fun (a, b) -> Json.Float (float_of_int a /. float_of_int b))
          (pair (int_range (-10000) 10000) (int_range 1 1000));
        map (fun s -> Json.Str s) (string_size ~gen:printable (int_range 0 12));
      ]
  in
  let key = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  fix
    (fun self depth ->
      if depth = 0 then scalar
      else
        frequency
          [
            (3, scalar);
            ( 1,
              map (fun xs -> Json.Arr xs)
                (list_size (int_range 0 4) (self (depth - 1))) );
            ( 1,
              map (fun kvs -> Json.Obj kvs)
                (list_size (int_range 0 4)
                   (pair key (self (depth - 1)))) );
          ])
    2

let qcheck_json_print_parse_fixpoint =
  (* one print normalizes; after that, parse∘print is the identity on
     the printed form — the property the NDJSON protocol relies on *)
  QCheck.Test.make ~name:"Json to_string/of_string fixpoint" ~count:300
    (QCheck.make json_gen)
    (fun j ->
      let s = Json.to_string j in
      match Json.of_string s with
      | Error e -> QCheck.Test.fail_reportf "printed JSON unparseable: %s" e
      | Ok j' -> String.equal (Json.to_string j') s)

let test_decoders_never_raise () =
  List.iter
    (fun line ->
      (match Proto.decode_request line with Ok _ | Error _ -> ());
      match Proto.decode_event line with Ok _ | Error _ -> ())
    [
      "";
      "}";
      "{";
      "{\"op\":\"submit\"}";
      "{\"op\":\"submit\",\"job\":{\"kind\":\"nope\"}}";
      "{\"ev\":\"row\"}";
      "{\"ev\":42}";
      "garbage { not json";
      "{\"op\":\"cancel\"}";
      String.make 4096 '{';
    ]

(* ---- in-process daemon integration ----------------------------------- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "zkserve-test-%d-%d" (Unix.getpid ()) !n)
    in
    (try Sys.mkdir d 0o755 with Sys_error _ -> ());
    d

(* A daemon over [dir] whose compile cache stores to [dir] too: a test
   reads no store an earlier test or run left warm, so a job it stops
   mid-run is not one that finishes before the stop lands. *)
let start_daemon dir =
  Daemon.start ~jobs:2 ~cache_dir:(Some (Filename.concat dir "zkcache")) ~dir ()

let sock_of dir = Filename.concat dir "zkbench.sock"

let submit_collect ?priority ?budget dir spec :
    string list * [ `Done of Json.t | `Failed of string ] =
  let rows = ref [] in
  match
    Client.with_connection (sock_of dir) (fun c ->
        Client.submit_and_watch ?priority ?budget
          ~on_event:(function
            | Proto.Row { data; _ } -> rows := data :: !rows
            | _ -> ())
          c spec)
  with
  | Ok (_id, outcome) -> (List.rev !rows, outcome)
  | Error msg -> Alcotest.failf "submit failed: %s" msg

(* Watch job [id] to its terminal event; its rows in arrival order. *)
let watch_collect dir id : string list * [ `Done of Json.t | `Failed of string ]
    =
  let rows = ref [] in
  match
    Client.with_connection (sock_of dir) (fun c ->
        match Client.send c (Proto.Watch id) with
        | Error e -> Error e
        | Ok () ->
          let rec loop () =
            match Client.recv c with
            | Ok (Proto.Row { data; _ }) ->
              rows := data :: !rows;
              loop ()
            | Ok (Proto.Done { summary; _ }) -> Ok (`Done summary)
            | Ok (Proto.Err { msg }) -> Ok (`Failed msg)
            | Ok _ -> loop ()
            | Error `Eof -> Error "eof mid-watch"
            | Error (`Bad m) -> Error m
          in
          loop ())
  with
  | Ok outcome -> (List.rev !rows, outcome)
  | Error e -> ([], `Failed e)

let small_sweep =
  Job.Sweep
    {
      programs = Some [ "factorial"; "loop-sum" ];
      profiles = Some [ "baseline"; "-O1" ];
      quick = true;
      backends = None;
      limit = None;
    }

let small_fuzz =
  Job.Fuzz
    {
      seed_lo = 1;
      seed_hi = 5;
      pipelines = [ "baseline" ];
      backends = Some [ "risc0"; "sp1" ];
      limit = None;
    }

let test_two_clients_interleave () =
  let dir = fresh_dir () in
  let d = start_daemon dir in
  Fun.protect ~finally:(fun () -> Daemon.stop d) @@ fun () ->
  let a = ref ([], `Failed "not run") and b = ref ([], `Failed "not run") in
  let ta = Thread.create (fun () -> a := submit_collect dir small_sweep) () in
  let tb = Thread.create (fun () -> b := submit_collect dir small_fuzz) () in
  Thread.join ta;
  Thread.join tb;
  let rows_a, out_a = !a and rows_b, out_b = !b in
  (match (out_a, out_b) with
  | `Done _, `Done _ -> ()
  | `Failed m, _ -> Alcotest.failf "sweep job failed: %s" m
  | _, `Failed m -> Alcotest.failf "fuzz job failed: %s" m);
  Alcotest.(check int) "sweep streamed its 4 cells" 4 (List.length rows_a);
  Alcotest.(check bool) "fuzz streamed rows" true (List.length rows_b > 0);
  (* row isolation: sweep rows are checkpoint points, fuzz rows are
     campaign rows — each client got only its own job's codec lines *)
  List.iter
    (fun r ->
      match Zkopt_harness.Checkpoint.decode_point r with
      | Some _ -> ()
      | None -> Alcotest.failf "client A received a non-sweep row: %s" r)
    rows_a;
  List.iter
    (fun r ->
      if List.exists (fun a -> String.equal a r) rows_a then
        Alcotest.failf "client B received client A's row: %s" r)
    rows_b

let test_warm_cache_across_clients () =
  let dir = fresh_dir () in
  let d = start_daemon dir in
  Fun.protect ~finally:(fun () -> Daemon.stop d) @@ fun () ->
  let rows1, _ = submit_collect dir small_sweep in
  (* a second client resubmits the same slice: every cell re-measures
     (fresh checkpoint) but every compile is served by the shared warm
     cache *)
  let rows2, out2 = submit_collect dir small_sweep in
  let summary =
    match out2 with
    | `Done s -> s
    | `Failed m -> Alcotest.failf "warm resubmit failed: %s" m
  in
  Alcotest.(check (slist string compare))
    "warm rows byte-identical to cold rows" rows1 rows2;
  let cache =
    match Json.member "cache" summary with
    | Some c -> c
    | None -> Alcotest.fail "summary has no cache stats"
  in
  Alcotest.(check int) "zero compiles on the warm pass" 0
    (Option.value ~default:(-1) (Json.int_member "misses" cache))

let rec wait_for ?(tries = 100) (p : unit -> bool) =
  if tries = 0 then Alcotest.fail "condition never became true"
  else if not (p ()) then begin
    Thread.delay 0.05;
    wait_for ~tries:(tries - 1) p
  end

let job_state dir id : string =
  match
    Client.with_connection (sock_of dir) (fun c ->
        match Client.send c Proto.Status with
        | Error e -> Error e
        | Ok () -> (
          match Client.recv c with
          | Ok (Proto.Status_report s) -> Ok s
          | _ -> Error "no status reply"))
  with
  | Error e -> Alcotest.failf "status failed: %s" e
  | Ok s -> (
    match Json.member "jobs" s with
    | Some (Json.Arr jobs) -> (
      match
        List.find_opt (fun j -> Json.str_member "id" j = Some id) jobs
      with
      | Some j -> Option.value ~default:"?" (Json.str_member "state" j)
      | None -> "absent")
    | _ -> "absent")

let test_disconnect_cancels_watched_job () =
  let dir = fresh_dir () in
  let d = start_daemon dir in
  Fun.protect ~finally:(fun () -> Daemon.stop d) @@ fun () ->
  let c =
    match Client.connect (sock_of dir) with
    | Ok c -> c
    | Error e -> Alcotest.failf "connect: %s" e
  in
  let spec =
    Job.Sweep
      {
        programs = Some [ "factorial"; "loop-sum"; "sha256"; "tailcall" ];
        profiles = Some [ "baseline"; "-O1"; "-O2"; "-O3" ];
        quick = true;
        backends = None;
        limit = None;
      }
  in
  (match
     Client.send c
       (Proto.Submit { spec; priority = 10; budget = None; watch = true })
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send: %s" e);
  let id =
    match Client.recv c with
    | Ok (Proto.Ack { id }) -> id
    | _ -> Alcotest.fail "no ack"
  in
  (* wait for at least one streamed row, then vanish mid-stream *)
  (match Client.recv c with
  | Ok (Proto.Row _) -> ()
  | other ->
    Alcotest.failf "expected a row, got %s"
      (match other with
      | Ok ev -> Proto.encode_event ev
      | Error `Eof -> "eof"
      | Error (`Bad m) -> m));
  Client.close c;
  wait_for (fun () -> String.equal (job_state dir id) "cancelled")

(* A kill mid-write leaves a torn D fragment at the registry's tail.
   The next record must start on a line of its own: fused onto the
   fragment it would not decode, and a restart would lose the job. *)
let test_registry_torn_tail () =
  let dir = fresh_dir () in
  let job1 =
    { Job.id = "job-1"; client = "c"; priority = 10; budget = None;
      spec = small_sweep }
  in
  Out_channel.with_open_bin (Filename.concat dir "jobs.reg") (fun oc ->
      output_string oc (Scheduler.encode_submit job1 ^ "\n");
      output_string oc "D\tjob-1\tdo");
  let create () =
    Scheduler.create ~dir ~jobs:1 ~cache_dir:None ~log:ignore ()
  in
  let s1 = create () in
  let id =
    match Scheduler.submit s1 ~client:"c" small_fuzz with
    | Ok id -> id
    | Error e -> Alcotest.failf "submit failed: %s" e
  in
  Scheduler.drain s1;
  let s2 = create () in
  Fun.protect ~finally:(fun () -> Scheduler.drain s2) @@ fun () ->
  let states =
    match Json.member "jobs" (Scheduler.status_json s2) with
    | Some (Json.Arr jobs) ->
      List.map
        (fun j ->
          ( Option.value ~default:"?" (Json.str_member "id" j),
            Option.value ~default:"?" (Json.str_member "state" j) ))
        jobs
    | _ -> []
  in
  Alcotest.(check (list (pair string string)))
    "both jobs survive the restart, still queued"
    [ ("job-1", "queued"); (id, "queued") ]
    states

(* stop the daemon mid-job, shear the checkpoint tail (torn-write
   shape), restart over the same directory: the job must resume and the
   final checkpoint must be byte-identical (as a set of lines) to an
   uninterrupted run's *)
let test_restart_resumes_byte_identical () =
  let dir = fresh_dir () in
  let spec =
    Job.Sweep
      {
        programs = Some [ "factorial"; "loop-sum"; "sha256"; "tailcall" ];
        profiles = Some [ "baseline"; "-O1"; "-O2"; "-O3" ];
        quick = true;
        backends = None;
        limit = None;
      }
  in
  (* uninterrupted reference, through the same daemon machinery *)
  let ref_dir = fresh_dir () in
  let dref = start_daemon ref_dir in
  let ref_rows, ref_out =
    Fun.protect
      ~finally:(fun () -> Daemon.stop dref)
      (fun () -> submit_collect ref_dir spec)
  in
  (match ref_out with
  | `Done _ -> ()
  | `Failed m -> Alcotest.failf "reference run failed: %s" m);
  (* interrupted run: stop as the third row streams in.  The watcher
     stops the daemon itself: a poll from another thread can wake after
     the whole 16-cell job (about 0.2 s) has finished, leaving nothing
     to resume.  The stop ends the watch with an error, ignored here. *)
  let d1 = start_daemon dir in
  let seen = ref 0 in
  ignore
    (Client.with_connection (sock_of dir) (fun c ->
         Client.submit_and_watch
           ~on_event:(function
             | Proto.Row _ ->
               incr seen;
               if !seen = 3 then Daemon.stop ~drain:false d1
             | _ -> ())
           c spec));
  let ckpt = Filename.concat dir "job-1.ckpt" in
  Alcotest.(check bool) "checkpoint exists after stop" true
    (Sys.file_exists ckpt);
  (* shear: drop the last line and leave a torn half-record behind *)
  let ic = open_in ckpt in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  (match !lines with
  | last :: rest when rest <> [] ->
    let oc = open_out ckpt in
    List.iter
      (fun l ->
        output_string oc l;
        output_char oc '\n')
      (List.rev rest);
    output_string oc (String.sub last 0 (String.length last / 2));
    close_out oc
  | _ -> ());
  (* restart over the same state directory: the registry re-enqueues
     job-1 and its checkpoint resumes it *)
  let d2 = start_daemon dir in
  Fun.protect ~finally:(fun () -> Daemon.stop d2) @@ fun () ->
  let rows, outcome = watch_collect dir "job-1" in
  (match outcome with
  | `Done _ -> ()
  | `Failed m -> Alcotest.failf "resumed job failed: %s" m);
  (* the watcher sees the full sequence: replayed resumed rows plus the
     freshly measured remainder, byte-identical to the reference *)
  Alcotest.(check (slist string compare))
    "resumed rows byte-identical to uninterrupted run" ref_rows rows;
  (* and the on-disk checkpoint healed to the same set of lines *)
  let ic = open_in ckpt in
  let ck = ref [] in
  (try
     while true do
       ck := input_line ic :: !ck
     done
   with End_of_file -> ());
  close_in ic;
  let ck_points = List.filter_map Zkopt_harness.Checkpoint.decode_point !ck in
  Alcotest.(check int) "checkpoint holds every cell" (List.length ref_rows)
    (List.length ck_points)

(* The state a kill leaves, built for every resumable kind: run the job
   to completion, drop its D line from the registry and keep the first
   half of its checkpoint.  After a restart, a watcher on the job must
   see every row of the uninterrupted run, replayed ones included. *)
let test_restart_streams_every_row () =
  let kinds =
    [
      ("sweep", small_sweep);
      ("fuzz", small_fuzz);
      ( "tune",
        Job.Autotune
          {
            program = "factorial";
            iters = 8;
            vm = "risc0";
            quick = true;
            seed = 7;
            population = 4;
          } );
      ( "settle",
        Job.Settle
          {
            programs = Some [ "factorial"; "loop-sum" ];
            profiles = Some [ "baseline"; "O1" ];
            backends = Some [ "risc0"; "sp1"; "valida" ];
            quick = true;
            arity = 2;
          } );
    ]
  in
  let lines path =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let write path ls =
    Out_channel.with_open_bin path (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) ls)
  in
  List.iter
    (fun (kind, spec) ->
      let dir = fresh_dir () in
      let d = start_daemon dir in
      let ref_rows =
        match
          Fun.protect
            ~finally:(fun () -> Daemon.stop d)
            (fun () -> submit_collect dir spec)
        with
        | rows, `Done _ -> rows
        | _, `Failed m -> Alcotest.failf "%s reference run failed: %s" kind m
      in
      let reg = Filename.concat dir "jobs.reg" in
      write reg
        (List.filter
           (fun l -> not (String.starts_with ~prefix:"D\t" l))
           (lines reg));
      let ckpt = Filename.concat dir "job-1.ckpt" in
      let kept = lines ckpt in
      write ckpt (List.filteri (fun i _ -> i < List.length kept / 2) kept);
      let d2 = start_daemon dir in
      Fun.protect ~finally:(fun () -> Daemon.stop d2) @@ fun () ->
      match watch_collect dir "job-1" with
      | rows, `Done _ ->
        Alcotest.(check (slist string compare))
          (kind ^ ": the watcher sees every row") ref_rows rows
      | _, `Failed m -> Alcotest.failf "%s resumed run failed: %s" kind m)
    kinds

(* Every crash spends one unit of the client's ledger, whatever the job
   kind: once a sweep over an unknown program has crashed, the client's
   next job with budget 1 fails fast. *)
let test_crash_spends_ledger () =
  let dir = fresh_dir () in
  let d = start_daemon dir in
  Fun.protect ~finally:(fun () -> Daemon.stop d) @@ fun () ->
  let bad =
    Job.Sweep
      {
        programs = Some [ "no-such-program" ];
        profiles = Some [ "baseline" ];
        quick = true;
        backends = None;
        limit = None;
      }
  in
  let first, second =
    match
      Client.with_connection (sock_of dir) (fun c ->
          let submit spec = Client.submit_and_watch ~budget:1 c spec in
          match submit bad with
          | Error e -> Error e
          | Ok (_, first) ->
            Result.map
              (fun (_, second) -> (first, second))
              (submit small_sweep))
    with
    | Ok outcomes -> outcomes
    | Error e -> Alcotest.failf "submit failed: %s" e
  in
  (match first with
  | `Failed _ -> ()
  | `Done _ -> Alcotest.fail "a sweep over an unknown program completed");
  match second with
  | `Failed msg ->
    Alcotest.(check bool) "fails on the exhausted budget" true
      (Astring_contains.contains msg "failure budget exhausted")
  | `Done _ -> Alcotest.fail "the crash did not spend from the ledger"

let tests =
  [
    Alcotest.test_case "jobq blocking pop and close" `Quick
      test_jobq_blocking_and_close;
    Alcotest.test_case "decoders never raise" `Quick test_decoders_never_raise;
    Alcotest.test_case "spec JSON gets the shared defaults" `Quick
      test_spec_defaults;
    Alcotest.test_case "registry survives a torn tail" `Quick
      test_registry_torn_tail;
    Alcotest.test_case "two concurrent clients stream disjoint jobs" `Slow
      test_two_clients_interleave;
    Alcotest.test_case "shared cache is warm across clients" `Slow
      test_warm_cache_across_clients;
    Alcotest.test_case "disconnect cancels the watched job" `Slow
      test_disconnect_cancels_watched_job;
    Alcotest.test_case "restart resumes byte-identically" `Slow
      test_restart_resumes_byte_identical;
    Alcotest.test_case "restart streams every row of every kind" `Slow
      test_restart_streams_every_row;
    Alcotest.test_case "a crash spends one ledger unit" `Slow
      test_crash_spends_ledger;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        qcheck_jobq_order;
        qcheck_jobq_interleaved;
        qcheck_spec_roundtrip;
        qcheck_request_roundtrip;
        qcheck_event_roundtrip;
        qcheck_json_print_parse_fixpoint;
      ]
