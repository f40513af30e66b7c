(** The differential fuzzing campaign engine.

    A campaign is a finite plan — (source × pipeline) cases over a fixed
    backend set — run as the tasks of a {!Zkopt_exec.Drive} plan.  Each
    case runs the full {!Case} oracle stack; divergences are classified,
    optionally minimized ({!Minimize}) and persisted ({!Corpus}), and
    every completed case streams one row to an append-only checkpoint so
    a killed campaign resumes without repeating work.

    {b Quarantine.}  Worker tasks never let an exception escape: a case
    that blows up in an unforeseen way (outside the classifying stages
    of {!Case.run}) is itself recorded as a base-stage divergence.  The
    pool's poison path is reserved for engine bugs, not fuzz findings —
    one pathological program cannot take down the other workers.

    {b Failure budget.}  With [failure_budget = Some n], the campaign
    starts no new case once [n] divergences have been found this run.
    Cases skipped by the budget write no checkpoint row, so a later
    resume picks them up.

    {b Checkpoint.}  One row per completed case, appended to a
    {!Zkopt_exec.Rowlog} under the {!ckpt_version} header, with a
    terminal ["."] field so a row is self-delimiting.  Row identity is
    (source, pipeline spec); rows are deterministic functions of the
    case and reach the log in plan order, so kill+resume and any [jobs]
    reproduce the uninterrupted run's checkpoint byte-for-byte. *)

module Error = Zkopt_harness.Error
module Faultplan = Zkopt_harness.Faultplan
module Backend = Zkopt_backend.Backend
module Pool = Zkopt_exec.Pool
module Drive = Zkopt_exec.Drive

(* ---- checkpoint / streaming rows ------------------------------------- *)

(** One completed case, as streamed to subscribers and persisted to the
    checkpoint.  [status] is ["agree"] or a {!Case.divergence_key};
    [detail] is ["-"] or the sanitized divergence detail. *)
type row = {
  src : string;
  spec : string;
  status : string;
  detail : string;
}

(* ---- plan ------------------------------------------------------------ *)

type config = {
  sources : Case.source list;
  pipelines : Case.pipeline list;  (** fixed pipelines, every source *)
  random_seqs : int;
      (** per-source random pass sequences (passfuzz-style, derived from
          the source's own coordinate — deterministic across runs) *)
  backends : Backend.t list;
  jobs : int;
  checkpoint : string option;
  resume : bool;
      (** load [checkpoint] and skip already-done cases; [false]
          discards the file's rows *)
  failure_budget : int option;
  minimize : bool;
  corpus : string option;  (** persist minimized findings under this dir *)
  faultplan : Faultplan.t;
  fuel : int;
  limit : int option;  (** cap the plan after enumeration (tests) *)
  log : string -> unit;
  pool : Pool.t option;
      (** external worker pool to run cases on; [None] = a private pool
          of [jobs] domains, or inline at [jobs = 1].  A service passes
          its long-lived pool so campaigns share the warm domains with
          every other job kind; the campaign never shuts it down. *)
  on_row : string -> unit;
      (** streaming hook: every checkpoint line, resumed and new, in
          plan order, one call at a time *)
  stop : unit -> bool;
      (** cooperative cancellation, polled before each case: once it
          returns [true], remaining cases are skipped (no row), so a
          later resume picks them up where this run drained. *)
}

let default ~backends =
  {
    sources = [];
    pipelines = [ Case.baseline ];
    random_seqs = 0;
    backends;
    jobs = 1;
    checkpoint = None;
    resume = false;
    failure_budget = None;
    minimize = false;
    corpus = None;
    faultplan = Faultplan.none;
    fuel = Case.default_fuel;
    limit = None;
    log = ignore;
    pool = None;
    on_row = ignore;
    stop = (fun () -> false);
  }

(* Deterministic per-source integer feeding the random-pipeline rng —
   the same idiom (and 7919 multiplier) as dev/passfuzz.ml, extended to
   workload sources. *)
let source_salt = function
  | Case.Seed { seed; _ } -> seed
  | Case.Workload w -> Hashtbl.hash w land 0xFFFF

let random_pipelines ~(count : int) (src : Case.source) : Case.pipeline list =
  if count <= 0 then []
  else begin
    let passes = Zkopt_passes.Catalog.all_passes () in
    let rng = Random.State.make [| source_salt src * 7919 |] in
    List.init count (fun _ ->
        let len = 1 + Random.State.int rng 8 in
        let seq =
          List.init len (fun _ ->
              List.nth passes (Random.State.int rng (List.length passes)))
        in
        let zk = Random.State.bool rng in
        Case.custom ~zk seq)
  end

(** Enumerate the plan in deterministic order (sources outer, fixed
    pipelines then random sequences inner), deduplicated by row key. *)
let plan (cfg : config) : Case.t list =
  let seen = Hashtbl.create 64 in
  let cases =
    List.concat_map
      (fun src ->
        List.filter_map
          (fun p ->
            let k = Case.source_name src ^ "\t" ^ p.Case.spec in
            if Hashtbl.mem seen k then None
            else begin
              Hashtbl.add seen k ();
              Some { Case.source = src; pipeline = p; backends = cfg.backends }
            end)
          (cfg.pipelines @ random_pipelines ~count:cfg.random_seqs src))
      cfg.sources
  in
  match cfg.limit with
  | None -> cases
  | Some n -> List.filteri (fun i _ -> i < n) cases

(* ---- checkpoint rows ------------------------------------------------- *)

let ckpt_version = "zkopt-fuzzckpt-v1"

let row_key (r : row) = r.src ^ "\t" ^ r.spec

let case_key (c : Case.t) =
  Case.source_name c.Case.source ^ "\t" ^ c.Case.pipeline.Case.spec

let row_of_verdict (c : Case.t) (v : Case.verdict) : row =
  let src = Case.source_name c.Case.source in
  let spec = c.Case.pipeline.Case.spec in
  match v with
  | Case.Agree -> { src; spec; status = "agree"; detail = "-" }
  | Case.Diverged d ->
    {
      src;
      spec;
      status = Case.divergence_key d;
      detail = Corpus.sanitize (Case.divergence_detail d);
    }

(* the terminal "." field makes a kill-truncated row undecodable *)
let encode_row (r : row) : string =
  String.concat "\t" [ r.src; r.spec; r.status; r.detail; "." ]

let decode_row (line : string) : row option =
  match String.split_on_char '\t' line with
  | [ src; spec; status; detail; "." ] when status <> "" ->
    Some { src; spec; status; detail }
  | _ -> None

(* ---- running --------------------------------------------------------- *)

type finding = {
  case : Case.t;
  divergence : Case.divergence;
  corpus_path : string option;  (** where the minimized entry landed *)
  minimized_instrs : int option;  (** instr count after shrinking *)
}

type summary = {
  planned : int;
  resumed : int;  (** cases satisfied from the checkpoint *)
  ran : int;
  agreed : int;
  findings : finding list;  (** divergences found this run, plan order *)
  budget_hit : bool;
}

(* The injected fault relevant to this case, if any — recorded in the
   corpus entry so replay re-injects it. *)
let fault_for (plan : Faultplan.t) (c : Case.t) :
    (string * Faultplan.kind) option =
  let src = Case.source_name c.Case.source in
  let spec = c.Case.pipeline.Case.spec in
  List.find_map
    (fun ((s : Faultplan.site), k) ->
      if
        String.equal s.Faultplan.program src
        && String.equal s.Faultplan.profile spec
        && List.exists
             (fun (b : Backend.t) -> String.equal b.Backend.name s.Faultplan.vm)
             c.Case.backends
      then Some (s.Faultplan.vm, k)
      else None)
    (Faultplan.sites plan)

(* Minimize a diverged case and (optionally) persist it.  Every failure
   mode in here is quarantined: worst case the finding is recorded
   unminimized. *)
let shrink_and_persist (cfg : config) (c : Case.t) (d : Case.divergence) :
    string option * int option =
  let key = Case.divergence_key d in
  let entry_of steps =
    {
      Corpus.source = c.Case.source;
      pipeline = c.Case.pipeline;
      backends = List.map (fun (b : Backend.t) -> b.Backend.name) c.Case.backends;
      fault = fault_for cfg.faultplan c;
      key;
      detail = Case.divergence_detail d;
      steps;
    }
  in
  (* Shrink under a reduced fuel: a candidate reduction that turns a
     loop infinite must cost ~milliseconds (classified out-of-fuel and
     rejected), not the campaign's full fuel budget.  A case whose
     divergence needs more than this to reproduce is persisted
     unminimized — the repro check below fails on the original too. *)
  let shrink_fuel = min cfg.fuel 2_000_000 in
  let minimized =
    if not cfg.minimize then None
    else
      match Case.build_source c.Case.source with
      | exception _ -> None
      | base ->
        let repro m =
          match
            Case.run ~faultplan:cfg.faultplan ~fuel:shrink_fuel c ~base:m
          with
          | Case.Diverged d' -> String.equal (Case.divergence_key d') key
          | Case.Agree | (exception _) -> false
        in
        (try
           let m, steps = Minimize.minimize ~repro base in
           Some (Minimize.instr_count m, steps)
         with _ -> None)
  in
  let instrs, steps =
    match minimized with
    | Some (n, steps) -> (Some n, steps)
    | None -> (None, [])
  in
  let path =
    match cfg.corpus with
    | None -> None
    | Some dir -> (
      try Some (Corpus.save ~dir (entry_of steps)) with Sys_error _ -> None)
  in
  (path, instrs)

(** Run the campaign to completion (or to the failure budget).  Returns
    the summary; side effects are the checkpoint rows and corpus
    entries. *)
let run (cfg : config) : summary =
  let cases = plan cfg in
  let mu = Mutex.create () in
  let found = ref 0 in
  let agreed = ref 0 in
  let budget_hit = ref false in
  let results : (string, finding) Hashtbl.t = Hashtbl.create 16 in
  let over_budget () =
    Mutex.protect mu (fun () ->
        match cfg.failure_budget with
        | Some n when !found >= n ->
          budget_hit := true;
          true
        | _ -> false)
  in
  let run_case (c : Case.t) () =
    (* quarantine: Case.run_case classifies everything its stages can
       raise; this catch-all covers the engine around it so a worker
       never poisons the pool with a fuzz finding *)
    let verdict =
      try Case.run_case ~faultplan:cfg.faultplan ~fuel:cfg.fuel c
      with e ->
        Case.Diverged { Case.stage = Case.Base; kind = Error.classify e }
    in
    let extra =
      match verdict with
      | Case.Agree -> None
      | Case.Diverged d -> Some (d, shrink_and_persist cfg c d)
    in
    Mutex.protect mu (fun () ->
        match extra with
        | None ->
          incr agreed;
          cfg.log
            (Printf.sprintf "ok    %s / %s"
               (Case.source_name c.Case.source)
               c.Case.pipeline.Case.spec)
        | Some (d, (corpus_path, minimized_instrs)) ->
          incr found;
          Hashtbl.replace results (case_key c)
            { case = c; divergence = d; corpus_path; minimized_instrs };
          cfg.log
            (Printf.sprintf "FOUND %s / %s -> %s%s"
               (Case.source_name c.Case.source)
               c.Case.pipeline.Case.spec (Case.divergence_key d)
               (match corpus_path with
               | Some p -> " [" ^ Filename.basename p ^ "]"
               | None -> "")));
    [ row_of_verdict c verdict ]
  in
  let o =
    Drive.run
      {
        Drive.encode = encode_row;
        decode = decode_row;
        key = row_key;
        checkpoint = cfg.checkpoint;
        header = Some ckpt_version;
        fresh = not cfg.resume;
        limit = None;
        jobs = cfg.jobs;
        pool = cfg.pool;
        stop = (fun () -> over_budget () || cfg.stop ());
        on_row = (fun _ line -> cfg.on_row line);
      }
      [
        List.map
          (fun c -> { Drive.keys = [ case_key c ]; run = run_case c })
          cases;
      ]
  in
  let findings =
    List.filter_map (fun c -> Hashtbl.find_opt results (case_key c)) cases
  in
  {
    planned = List.length cases;
    resumed = o.Drive.replayed;
    ran = o.Drive.ran;
    agreed = !agreed;
    findings;
    budget_hit = !budget_hit;
  }

let describe (s : summary) : string =
  Printf.sprintf
    "campaign: %d planned, %d resumed, %d ran, %d agreed, %d diverged%s"
    s.planned s.resumed s.ran s.agreed (List.length s.findings)
    (if s.budget_hit then " (failure budget hit)" else "")
