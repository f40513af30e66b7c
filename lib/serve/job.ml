(** Job specs: the one description of an engine run, for both front
    doors.

    A spec is one unit of work — a (slice of the) sweep matrix, a single
    profiled cell, an autotune search, a differential fuzzing campaign
    or a settlement sweep — as pure data with a JSON codec.  The daemon's
    scheduler receives it over the wire protocol ({!Proto}) and keeps it
    in its append-only job registry, so a killed daemon re-reads exactly
    what its clients submitted; the one-shot CLI builds the same spec
    from the same flags.

    This module is also where a spec becomes an engine run: every field
    has its one default here (the flags on both doors and
    {!spec_of_json} read it), every name goes through one resolver
    ({!workload}, {!backend}, {!Zkopt_core.Profile.of_name},
    {!Zkopt_fuzz.Case.pipeline_of_spec}), and one function per kind maps
    a spec to its engine config ({!sweep_config} .. {!settle_config}).
    Each door then adds only its own environment: the daemon its shared
    pool, caches, per-job checkpoint and hooks; the CLI its job count,
    cache flags, checkpoint and progress output. *)

module Json = Zkopt_report.Json
module Profile = Zkopt_core.Profile
module Backend = Zkopt_backend.Backend
module Registry = Zkopt_backend.Registry
module Workload = Zkopt_workloads.Workload
module Case = Zkopt_fuzz.Case
module Campaign = Zkopt_fuzz.Campaign
module H = Zkopt_harness.Harness
module Autotune = Zkopt_autotune.Autotune
module Ssweep = Zkopt_settle.Ssweep

type sweep = {
  programs : string list option;  (** [None] = the full suite *)
  profiles : string list option;  (** [None] = all 71 profiles *)
  quick : bool;
  backends : string list option;  (** [None] = the registry default pair *)
  limit : int option;
}

(** One (program, profile, backend) cell, warmed by/warming the shared
    compile cache. *)
type profile_cell = {
  program : string;
  profile : string;
  vm : string;
  quick : bool;
}

type autotune = {
  program : string;
  iters : int;
  vm : string;
  quick : bool;
  seed : int;
  population : int;
}

type fuzz = {
  seed_lo : int;
  seed_hi : int;
  pipelines : string list;  (** {!Zkopt_fuzz.Case.pipeline_of_spec} specs *)
  backends : string list option;  (** [None] = every registered backend *)
  limit : int option;
}

(** Settlement-cost sweep: prover + aggregation + verification gas per
    (program, profile, backend) cell. *)
type settle = {
  programs : string list option;  (** [None] = the full suite *)
  profiles : string list option;  (** [None] = {!settle_profiles} *)
  backends : string list option;  (** [None] = every registered backend *)
  quick : bool;
  arity : int;  (** aggregation fan-in of the recursion tree *)
}

type spec =
  | Sweep of sweep
  | Profile_cell of profile_cell
  | Autotune of autotune
  | Fuzz of fuzz
  | Settle of settle

let kind_name = function
  | Sweep _ -> "sweep"
  | Profile_cell _ -> "profile"
  | Autotune _ -> "autotune"
  | Fuzz _ -> "fuzz"
  | Settle _ -> "settle"

(** One submitted job.  [client] tags the submitting connection (the
    unit of failure-budget accounting); [priority] orders the queue
    (lower runs sooner, FIFO within a priority). *)
type t = {
  id : string;
  client : string;
  priority : int;
  budget : int option;  (** per-client failure budget, if declared *)
  spec : spec;
}

type state =
  | Queued
  | Running
  | Finished
  | Cancelled
  | Failed of string

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Finished -> "done"
  | Cancelled -> "cancelled"
  | Failed _ -> "failed"

(* ---- one default per field ------------------------------------------- *)

(* The flags of both doors and {!spec_of_json} read these, so a bare
   `zkbench fuzz` and a bare `zkbench submit fuzz` plan one campaign. *)
let default_profile = "baseline"
let default_vm = "risc0"
let default_iters = 160
let default_seed = 1
let default_population = 16
let default_seeds = (1, 100)
let default_pipelines = (* written as --pipelines takes it *)
  String.split_on_char ',' "baseline,O3,zk-o3"
let default_arity = 8

(** The profiles a settle spec without [profiles] prices. *)
let settle_profiles =
  let open Zkopt_passes.Catalog in
  Profile.[ Baseline; Level O1; Level O2; Level O3; Level Os; Level Oz; Zkvm_o3 ]

(* ---- names ----------------------------------------------------------- *)

(** A program of the suite, by name. *)
let workload (name : string) : (Workload.t, string) result =
  Zkopt_workloads.Suite.check_composition ();
  match Workload.find name with
  | w -> Ok w
  | exception Invalid_argument _ ->
    Error (Printf.sprintf "unknown program %S (see `zkbench list`)" name)

(** A registered backend, by name; the error lists the registry. *)
let backend (name : string) : (Backend.t, string) result =
  match Registry.find name with
  | b -> Ok b
  | exception Invalid_argument msg -> Error msg

(** A fuzz column: a registered backend or the pseudo-backend
    ["sp1-dense"] ({!Zkopt_fuzz.Case.resolve_backend}). *)
let fuzz_backend (name : string) : (Backend.t, string) result =
  match Case.resolve_backend name with
  | b -> Ok b
  | exception Invalid_argument msg -> Error msg

(* A spec that reaches an engine was checked by the CLI's converters or
   came off the wire unchecked; a bad name fails the run here. *)
let get = function Ok v -> v | Error msg -> invalid_arg msg
let all f = List.map (fun n -> get (f n))
let size quick = if quick then Workload.Quick else Workload.Full

(* ---- spec -> engine config ------------------------------------------- *)

(** The harness config a sweep describes (the harness resolves program
    names itself); the caller adds checkpoint, cache, jobs or pool, and
    hooks. *)
let sweep_config (s : sweep) : H.config =
  {
    (H.default ~size:(size s.quick)) with
    H.programs = s.programs;
    profiles = Option.map (all Profile.of_name) s.profiles;
    backends = Option.map (all backend) s.backends;
    limit = s.limit;
  }

(** The program, profile and backend a profile cell names. *)
let cell_config (c : profile_cell) : Workload.t * Profile.t * Backend.t =
  (get (workload c.program), get (Profile.of_name c.profile), get (backend c.vm))

(** The search an autotune spec describes and its one target, which
    compiles through the artifact [cache] and scores cycles, or the
    settled cost with [~settled:true].  The caller adds jobs or pool,
    checkpoint and hooks. *)
let autotune_config ~cache ?(settled = false) (a : autotune) :
    Autotune.config * Autotune.target =
  let w = get (workload a.program) and b = get (backend a.vm) in
  let build () = w.Workload.build (size a.quick) in
  let target =
    if settled then Autotune.settled_target ~cache ~program:a.program ~build b
    else Autotune.backend_target ~cache ~program:a.program ~build b
  in
  ( Autotune.default ~seed:a.seed ~population:a.population
      ~iterations:a.iters (),
    target )

(** The campaign a fuzz spec describes: every seed of the range under
    every pipeline on every column. *)
let fuzz_config (f : fuzz) : Campaign.config =
  let backends =
    match f.backends with
    | None -> Registry.all ()
    | Some ns -> all fuzz_backend ns
  in
  {
    (Campaign.default ~backends) with
    Campaign.sources =
      List.init (f.seed_hi - f.seed_lo + 1) (fun i -> Case.seed (f.seed_lo + i));
    pipelines = all Case.pipeline_of_spec f.pipelines;
    limit = f.limit;
  }

(** The settlement sweep a settle spec describes. *)
let settle_config (s : settle) : Ssweep.config =
  {
    (Ssweep.default ~size:(size s.quick) ()) with
    Ssweep.programs =
      List.map
        (fun w -> w.Workload.name)
        (match s.programs with
        | Some ns -> all workload ns
        | None -> Zkopt_workloads.Suite.all ());
    profiles =
      (match s.profiles with
      | Some ns -> all Profile.of_name ns
      | None -> settle_profiles);
    backends =
      (match s.backends with None -> Registry.all () | Some ns -> all backend ns);
    arity = Some s.arity;
  }

(* ---- JSON codec ------------------------------------------------------ *)

let strs xs = Json.Arr (List.map (fun s -> Json.Str s) xs)

let opt_strs k = function None -> [] | Some xs -> [ (k, strs xs) ]
let opt_int k = function None -> [] | Some i -> [ (k, Json.Int i) ]

let spec_to_json : spec -> Json.t = function
  | Sweep { programs; profiles; quick; backends; limit } ->
    Json.Obj
      ([ ("kind", Json.Str "sweep"); ("quick", Json.Bool quick) ]
      @ opt_strs "programs" programs
      @ opt_strs "profiles" profiles
      @ opt_strs "backends" backends
      @ opt_int "limit" limit)
  | Profile_cell { program; profile; vm; quick } ->
    Json.Obj
      [
        ("kind", Json.Str "profile");
        ("program", Json.Str program);
        ("profile", Json.Str profile);
        ("vm", Json.Str vm);
        ("quick", Json.Bool quick);
      ]
  | Autotune { program; iters; vm; quick; seed; population } ->
    Json.Obj
      [
        ("kind", Json.Str "autotune");
        ("program", Json.Str program);
        ("iters", Json.Int iters);
        ("vm", Json.Str vm);
        ("quick", Json.Bool quick);
        ("seed", Json.Int seed);
        ("population", Json.Int population);
      ]
  | Fuzz { seed_lo; seed_hi; pipelines; backends; limit } ->
    Json.Obj
      ([
         ("kind", Json.Str "fuzz");
         ("seed_lo", Json.Int seed_lo);
         ("seed_hi", Json.Int seed_hi);
         ("pipelines", strs pipelines);
       ]
      @ opt_strs "backends" backends
      @ opt_int "limit" limit)
  | Settle { programs; profiles; backends; quick; arity } ->
    Json.Obj
      ([
         ("kind", Json.Str "settle");
         ("quick", Json.Bool quick);
         ("arity", Json.Int arity);
       ]
      @ opt_strs "programs" programs
      @ opt_strs "profiles" profiles
      @ opt_strs "backends" backends)

let strs_member k j =
  match Json.member k j with
  | Some (Json.Arr xs) ->
    Some
      (List.filter_map (function Json.Str s -> Some s | _ -> None) xs)
  | _ -> None

(** Decode a spec; a field the client left out gets its one default. *)
let spec_of_json (j : Json.t) : (spec, string) result =
  let quick = Option.value ~default:false (Json.bool_member "quick" j) in
  let str k ~default = Option.value ~default (Json.str_member k j) in
  let int k ~default = Option.value ~default (Json.int_member k j) in
  match Json.str_member "kind" j with
  | Some "sweep" ->
    Ok
      (Sweep
         {
           programs = strs_member "programs" j;
           profiles = strs_member "profiles" j;
           quick;
           backends = strs_member "backends" j;
           limit = Json.int_member "limit" j;
         })
  | Some "profile" -> (
    match Json.str_member "program" j with
    | Some program ->
      Ok
        (Profile_cell
           {
             program;
             profile = str "profile" ~default:default_profile;
             vm = str "vm" ~default:default_vm;
             quick;
           })
    | None -> Error "profile job needs \"program\"")
  | Some "autotune" -> (
    match Json.str_member "program" j with
    | Some program ->
      Ok
        (Autotune
           {
             program;
             iters = int "iters" ~default:default_iters;
             vm = str "vm" ~default:default_vm;
             quick;
             seed = int "seed" ~default:default_seed;
             population = int "population" ~default:default_population;
           })
    | None -> Error "autotune job needs \"program\"")
  | Some "fuzz" -> (
    match (Json.int_member "seed_lo" j, Json.int_member "seed_hi" j) with
    | Some seed_lo, Some seed_hi when seed_lo <= seed_hi ->
      Ok
        (Fuzz
           {
             seed_lo;
             seed_hi;
             pipelines =
               Option.value ~default:default_pipelines
                 (strs_member "pipelines" j);
             backends = strs_member "backends" j;
             limit = Json.int_member "limit" j;
           })
    | _ -> Error "fuzz job needs \"seed_lo\" <= \"seed_hi\"")
  | Some "settle" ->
    Ok
      (Settle
         {
           programs = strs_member "programs" j;
           profiles = strs_member "profiles" j;
           backends = strs_member "backends" j;
           quick;
           arity = int "arity" ~default:default_arity;
         })
  | Some k -> Error (Printf.sprintf "unknown job kind %S" k)
  | None -> Error "job spec has no \"kind\""
