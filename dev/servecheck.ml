(* Sweep-service smoke gate (dune build @smoke):

   1. fidelity — two concurrent clients (a sweep and a fuzz campaign)
      stream rows from an in-process daemon that must match the
      one-shot harness/campaign engines byte-for-byte;
   2. warm cache — a second client resubmitting an overlapping sweep
      slice must be served >= 90% from the shared compile cache
      (in practice 100%: every digest is resident);
   3. drain/restart — stopping the daemon mid-job and restarting over
      the same state directory must re-enqueue the job from the
      registry, resume it from its checkpoint, and finish with rows
      byte-identical to an uninterrupted run. *)

open Zkopt_core
module H = Zkopt_harness.Harness
module Checkpoint = Zkopt_harness.Checkpoint
module Campaign = Zkopt_fuzz.Campaign
module Case = Zkopt_fuzz.Case
module Job = Zkopt_serve.Job
module Proto = Zkopt_serve.Proto
module Daemon = Zkopt_serve.Daemon
module Client = Zkopt_serve.Client
module Json = Zkopt_report.Json
module Seedfmt = Zkopt_devutil.Seedfmt

let tool = "servecheck"
let () = Zkopt_valida.Vbackend.ensure ()

let programs = [ "factorial"; "loop-sum"; "sha256" ]
let profile_names = [ "baseline"; "-O2" ]
let profiles =
  [ Profile.Baseline; Profile.Level Zkopt_passes.Catalog.O2 ]

let fuzz_seeds = (1, 10)

let sweep_spec =
  Job.Sweep
    {
      programs = Some programs;
      profiles = Some profile_names;
      quick = true;
      backends = None;
      limit = None;
    }

let fuzz_spec =
  let lo, hi = fuzz_seeds in
  Job.Fuzz
    {
      seed_lo = lo;
      seed_hi = hi;
      pipelines = [ "baseline" ];
      backends = Some [ "risc0"; "sp1" ];
      limit = None;
    }

let sorted xs = List.sort compare xs

let sock_of dir = Filename.concat dir "zkbench.sock"

(* submit over the socket, collect streamed rows until the terminal
   event *)
let submit_collect dir spec : string list * Json.t =
  let rows = ref [] in
  match
    Client.with_connection (sock_of dir) (fun c ->
        Client.submit_and_watch
          ~on_event:(function
            | Proto.Row { data; _ } -> rows := data :: !rows
            | _ -> ())
          c spec)
  with
  | Ok (_, `Done summary) -> (List.rev !rows, summary)
  | Ok (id, `Failed m) ->
    Seedfmt.fail ~tool "job %s failed: %s" id m;
    ([], Json.Null)
  | Error m ->
    Seedfmt.fail ~tool "submit failed: %s" m;
    ([], Json.Null)

let mkdir d = try Sys.mkdir d 0o755 with Sys_error _ -> ()

let () =
  let state = "servecheck-state" in
  mkdir state;

  (* one-shot references, run through the engines directly *)
  let oneshot_sweep =
    let o =
      H.run
        {
          (H.default ~size:Zkopt_workloads.Workload.Quick) with
          H.programs = Some programs;
          profiles = Some profiles;
          jobs = 2;
        }
    in
    Hashtbl.fold (fun _ p acc -> Checkpoint.encode_point p :: acc) o.H.points []
    |> sorted
  in
  let oneshot_fuzz_rows = ref [] in
  let _ =
    let lo, hi = fuzz_seeds in
    Campaign.run
      {
        (Campaign.default
           ~backends:
             [ Case.resolve_backend "risc0"; Case.resolve_backend "sp1" ])
        with
        Campaign.sources = List.init (hi - lo + 1) (fun i -> Case.seed (lo + i));
        pipelines =
          [
            (match Case.pipeline_of_spec "baseline" with
            | Ok p -> p
            | Error e -> failwith e);
          ];
        jobs = 2;
        on_row = (fun r -> oneshot_fuzz_rows := r :: !oneshot_fuzz_rows);
      }
  in
  let oneshot_fuzz = sorted !oneshot_fuzz_rows in

  (* 1. two concurrent clients against one daemon *)
  let d = Daemon.start ~jobs:2 ~dir:state () in
  let a = ref ([], Json.Null) and b = ref ([], Json.Null) in
  let ta = Thread.create (fun () -> a := submit_collect state sweep_spec) () in
  let tb = Thread.create (fun () -> b := submit_collect state fuzz_spec) () in
  Thread.join ta;
  Thread.join tb;
  let sweep_rows, _ = !a and fuzz_rows, _ = !b in
  if sorted sweep_rows <> oneshot_sweep then
    Seedfmt.fail ~tool
      "streamed sweep rows diverge from the one-shot harness (%d vs %d rows)"
      (List.length sweep_rows)
      (List.length oneshot_sweep);
  if sorted fuzz_rows <> oneshot_fuzz then
    Seedfmt.fail ~tool
      "streamed fuzz rows diverge from the one-shot campaign (%d vs %d rows)"
      (List.length fuzz_rows)
      (List.length oneshot_fuzz);

  (* 2. overlapping resubmission rides the warm shared cache *)
  let warm_rows, warm_summary = submit_collect state sweep_spec in
  if sorted warm_rows <> oneshot_sweep then
    Seedfmt.fail ~tool "warm-cache sweep rows diverge from the one-shot run";
  (match Json.member "cache" warm_summary with
  | Some cache ->
    let rate =
      match Json.member "hit_rate_pct" cache with
      | Some (Json.Float f) -> f
      | Some (Json.Int i) -> float_of_int i
      | _ -> 0.0
    in
    if rate < 90.0 then
      Seedfmt.fail ~tool "warm-cache hit rate %.1f%% < 90%%" rate
  | None -> Seedfmt.fail ~tool "sweep summary carries no cache stats");
  Daemon.stop d;

  (* 3. stop mid-job, restart over the same state dir, resume *)
  let state2 = "servecheck-state-2" in
  mkdir state2;
  let big_sweep =
    Job.Sweep
      {
        programs = Some (programs @ [ "tailcall" ]);
        profiles = Some (profile_names @ [ "-O1"; "-O3" ]);
        quick = true;
        backends = None;
        limit = None;
      }
  in
  (* uninterrupted reference through the daemon machinery *)
  let ref_dir = "servecheck-state-ref" in
  mkdir ref_dir;
  let dref = Daemon.start ~jobs:2 ~dir:ref_dir () in
  let ref_rows, _ = submit_collect ref_dir big_sweep in
  Daemon.stop dref;
  (* interrupted run *)
  let d1 = Daemon.start ~jobs:2 ~dir:state2 () in
  let seen = Atomic.make 0 in
  let submitter =
    Thread.create
      (fun () ->
        ignore
          (Client.with_connection (sock_of state2) (fun c ->
               Client.submit_and_watch
                 ~on_event:(function
                   | Proto.Row _ -> Atomic.incr seen
                   | _ -> ())
                 c big_sweep)))
      ()
  in
  let rec wait tries =
    if tries = 0 then Seedfmt.fail ~tool "no rows streamed before the stop"
    else if Atomic.get seen < 3 then begin
      Thread.delay 0.05;
      wait (tries - 1)
    end
  in
  wait 400;
  Daemon.stop d1;
  Thread.join submitter;
  (* restart: the registry re-enqueues the job, the checkpoint resumes
     it; watch it to completion *)
  let d2 = Daemon.start ~jobs:2 ~dir:state2 () in
  let resumed = ref [] in
  (match
     Client.with_connection (sock_of state2) (fun c ->
         match Client.send c (Proto.Watch "job-1") with
         | Error e -> Error e
         | Ok () ->
           let rec loop () =
             match Client.recv c with
             | Ok (Proto.Row { data; _ }) ->
               resumed := data :: !resumed;
               loop ()
             | Ok (Proto.Done _) -> Ok ()
             | Ok (Proto.Err { msg }) -> Error msg
             | Ok _ -> loop ()
             | Error `Eof -> Error "eof mid-watch"
             | Error (`Bad m) -> Error m
           in
           loop ())
   with
  | Ok () -> ()
  | Error m -> Seedfmt.fail ~tool "resumed watch failed: %s" m);
  Daemon.stop d2;
  if sorted !resumed <> sorted ref_rows then
    Seedfmt.fail ~tool
      "resumed rows diverge from the uninterrupted run (%d vs %d rows)"
      (List.length !resumed) (List.length ref_rows);
  Seedfmt.finish tool
