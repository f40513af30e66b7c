(** One differential-fuzzing case: a program source (a {!Randprog} seed
    with generator knobs, or a named workload at quick size), a pass
    pipeline, and a backend list.

    Running a case checks the Arguzz-style oracle stack, in a fixed
    order so a failing case always classifies deterministically:

    + {b base}: the untransformed program must verify and interpret to a
      checksum (the reference value for everything below);
    + {b opt} (metamorphic): the pipeline-transformed program must
      verify and its interpreted checksum must equal the reference —
      pass-applied vs unapplied must agree;
    + {b per backend} (differential): each backend's measured
      {!Zkopt_core.Measure.exit64} must equal the reference, and the
      backend's own accounting-conservation oracle must hold;
    + {b pricing} (metamorphic): the agreeing backend's measurement,
      priced through the settlement models
      ({!Zkopt_settle.Settle.check_invariants}), must price
      deterministically, its settled cost must dominate the prover
      component, aggregation depth must equal [ceil (log_arity
      segments)], and gas must be monotone in the root proof size.

    Any exception or oracle violation classifies through the harness
    error taxonomy ({!Zkopt_harness.Error.kind}) tagged with the stage
    it fired in; the (stage, kind) pair is the divergence's identity —
    the minimizer shrinks a program while preserving exactly that key. *)

open Zkopt_ir
module Error = Zkopt_harness.Error
module Faultplan = Zkopt_harness.Faultplan
module Backend = Zkopt_backend.Backend
module Registry = Zkopt_backend.Registry
module Measure = Zkopt_core.Measure
module Profile = Zkopt_core.Profile

(* ---- program sources ------------------------------------------------ *)

type source =
  | Seed of { seed : int; knobs : Randprog.knobs }
  | Workload of string  (** a suite program, built at [Quick] size *)

let seed ?(knobs = Randprog.default_knobs) n = Seed { seed = n; knobs }

let knobs_to_string (k : Randprog.knobs) : string =
  Printf.sprintf "budget=%d,depth=%d,loop=%d,calls=%b,memory=%b,wide=%b"
    k.Randprog.budget k.Randprog.max_depth k.Randprog.max_loop_bound
    k.Randprog.calls k.Randprog.memory k.Randprog.wide

(* Total: an unknown key, a malformed pair or a value that does not
   parse gives [None]. *)
let knobs_of_string (s : string) : Randprog.knobs option =
  let int v f = Option.map f (int_of_string_opt v) in
  let bool v f = Option.map f (bool_of_string_opt v) in
  List.fold_left
    (fun acc kv ->
      Option.bind acc (fun (k : Randprog.knobs) ->
          match String.split_on_char '=' kv with
          | [ "budget"; v ] -> int v (fun n -> { k with Randprog.budget = n })
          | [ "depth"; v ] -> int v (fun n -> { k with Randprog.max_depth = n })
          | [ "loop"; v ] -> int v (fun n -> { k with Randprog.max_loop_bound = n })
          | [ "calls"; v ] -> bool v (fun b -> { k with Randprog.calls = b })
          | [ "memory"; v ] -> bool v (fun b -> { k with Randprog.memory = b })
          | [ "wide"; v ] -> bool v (fun b -> { k with Randprog.wide = b })
          | _ -> None))
    (Some Randprog.default_knobs)
    (String.split_on_char ',' s)

(** ["seed:42"], ["seed:42[budget=20,...]"] (non-default knobs), or
    ["workload:factorial"].  The string is the case's program coordinate
    everywhere: checkpoint rows, fault-plan sites, corpus entries. *)
let source_name = function
  | Seed { seed; knobs } ->
    if knobs = Randprog.default_knobs then Printf.sprintf "seed:%d" seed
    else Printf.sprintf "seed:%d[%s]" seed (knobs_to_string knobs)
  | Workload w -> "workload:" ^ w

let source_of_name (s : string) : source option =
  match String.index_opt s ':' with
  | None -> None
  | Some i -> (
    let tag = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match tag with
    | "workload" when rest <> "" -> Some (Workload rest)
    | "seed" -> (
      match String.index_opt rest '[' with
      | None -> (
        match int_of_string_opt rest with
        | Some n -> Some (seed n)
        | None -> None)
      | Some j
        when String.length rest > j + 1
             && rest.[String.length rest - 1] = ']' -> (
        let n = String.sub rest 0 j in
        let ks = String.sub rest (j + 1) (String.length rest - j - 2) in
        match (int_of_string_opt n, knobs_of_string ks) with
        | Some n, Some knobs -> Some (Seed { seed = n; knobs })
        | _ -> None)
      | Some _ -> None)
    | _ -> None)

(** Build a fresh, unlinked module for a source.  The minimizer edits
    modules at exactly this stage — before the runtime is linked — so a
    recorded reduction trace replays against regenerated programs. *)
let build_source : source -> Modul.t = function
  | Seed { seed; knobs } -> Randprog.generate ~knobs ~seed ()
  | Workload name ->
    (* force linkage of the per-suite registration modules *)
    Zkopt_workloads.Suite.check_composition ();
    let w = Zkopt_workloads.Workload.find name in
    w.Zkopt_workloads.Workload.build Zkopt_workloads.Workload.Quick

(* ---- pipelines ------------------------------------------------------ *)

(** A pass pipeline under a canonical spec string: a profile name
    ({!Profile.of_name}: ["baseline"], a level such as ["O2"], ["zk-o3"],
    a single pass name), or a custom sequence ["a;b;c"] (standard cost
    model) / ["zk:a;b;c"] (zkVM-aware cost model). *)
type pipeline = { spec : string; profile : Profile.t }

let baseline = { spec = "baseline"; profile = Profile.Baseline }

let custom ?(zk = false) (passes : string list) : pipeline =
  let config =
    if zk then Zkopt_passes.Pass.zkvm_config
    else Zkopt_passes.Pass.standard_config
  in
  let spec = (if zk then "zk:" else "") ^ String.concat ";" passes in
  { spec; profile = Profile.Custom (passes, config) }

(** Parse a spec.  A profile name keeps the form it was given in, except
    that the zkVM-aware -O3 is always ["zk-o3"]; a sequence is
    canonicalized by {!custom}. *)
let pipeline_of_spec (spec : string) : (pipeline, string) result =
  let zk = String.starts_with ~prefix:"zk:" spec in
  if not (zk || String.contains spec ';') then
    match Profile.of_name spec with
    | Ok Profile.Zkvm_o3 -> Ok { spec = "zk-o3"; profile = Profile.Zkvm_o3 }
    | Ok profile -> Ok { spec; profile }
    | Error e -> Error e
  else
    let body = if zk then String.sub spec 3 (String.length spec - 3) else spec in
    let passes = List.filter (fun p -> p <> "") (String.split_on_char ';' body) in
    let unknown p =
      match Zkopt_passes.Pass.find p with
      | _ -> false
      | exception Invalid_argument _ -> true
    in
    match (passes, List.find_opt unknown passes) with
    | [], _ -> Error (Printf.sprintf "empty pipeline spec %S" spec)
    | _, Some bad -> Error (Printf.sprintf "unknown pass %S in %S" bad spec)
    | passes, None -> Ok (custom ~zk passes)

(* ---- backends ------------------------------------------------------- *)

(** The §4.2 reproduction configuration: SP1 pricing with shard
    boundaries every 2^10 user cycles, so even quick-size programs cross
    many segment boundaries — recursive call-heavy code then lands a
    boundary on an indirect jump (a return), the window the silent-halt
    bug needs.  Not a registry entry (it is a deliberately buggy-era
    config, not a measurement column); the fuzz engine resolves it by
    name. *)
let sp1_dense : Backend.t =
  Zkopt_backend.Rv32.backend ~fixed:true
    { Zkopt_zkvm.Config.sp1 with
      Zkopt_zkvm.Config.name = "sp1-dense";
      segment_limit = 1 lsl 10 }
    ~doc:"SP1 pricing with dense shard boundaries (§4.2 repro config)"

(** Resolve a backend name for a fuzz case: any registered backend, plus
    the pseudo-backend ["sp1-dense"]. *)
let resolve_backend (name : string) : Backend.t =
  if String.equal name "sp1-dense" then sp1_dense else Registry.find name

(* ---- the case and its verdict --------------------------------------- *)

type t = {
  source : source;
  pipeline : pipeline;
  backends : Backend.t list;  (** differential columns, in check order *)
}

type stage =
  | Base  (** the untransformed program itself failed an oracle *)
  | Opt  (** the pipeline broke verification or interpreted semantics *)
  | Vm of string  (** a backend diverged from the interpreter reference *)
  | Price of string
      (** a backend's settlement pricing broke a metamorphic invariant
          (determinism, cost dominance, depth law, gas monotonicity) *)

type divergence = { stage : stage; kind : Error.kind }

type verdict = Agree | Diverged of divergence

let stage_name = function
  | Base -> "base"
  | Opt -> "opt"
  | Vm vm -> vm
  | Price vm -> "price:" ^ vm

(** The divergence's identity: same key = same bug class at the same
    stage.  Deliberately excludes the concrete checksum values, which
    change as the minimizer shrinks the program. *)
let divergence_key (d : divergence) : string =
  stage_name d.stage ^ ":" ^ Error.kind_name d.kind

let divergence_detail (d : divergence) : string =
  Error.kind_detail d.kind

let default_fuel = 200_000_000

(** Run the oracle stack for [t] over the (unlinked) base module.  The
    base is never mutated: every stage works on a fresh
    {!Zkopt_ir.Clone} of it.  [faultplan] sites are looked up under the
    coordinates ([source_name], [pipeline.spec], backend name). *)
let run ?(faultplan = Faultplan.none) ?(fuel = default_fuel) (t : t)
    ~(base : Modul.t) : verdict =
  let src = source_name t.source in
  let diverge stage e = Diverged { stage; kind = Error.classify e } in
  (* base stage: the generated program itself must be sound *)
  match
    let m0 = Clone.modul base in
    Zkopt_runtime.Runtime.link m0;
    Verify.check m0;
    Interp.checksum ~fuel m0
  with
  | exception e -> diverge Base e
  | reference -> (
    (* opt stage: the pipeline must preserve interpreted semantics *)
    match
      let m =
        Measure.prepare_ir
          ~build:(fun () -> Clone.modul base)
          t.pipeline.profile
      in
      let got = Interp.checksum ~fuel m in
      if not (Int64.equal got reference) then
        raise
          (Error.Divergence
             { expected = reference; got; oracle = "metamorphic-interp" });
      m
    with
    | exception e -> diverge Opt e
    | m ->
      (* backend stage: every backend must agree with the reference;
         once a backend agrees, its measurement flows into the
         metamorphic pricing oracle (stage [Price]) — the settlement
         models must price the same trace deterministically and obey
         the cost-dominance / depth / gas-monotonicity laws *)
      let rec go = function
        | [] -> Agree
        | (b : Backend.t) :: rest -> (
          match
            let c = b.Backend.compile m in
            let fault =
              Faultplan.executor_fault faultplan ~program:src
                ~profile:t.pipeline.spec ~vm:b.Backend.name
            in
            c.Backend.measure ~vm:b.Backend.name ?fault ~fuel ()
          with
          | exception e -> diverge (Vm b.Backend.name) e
          | r -> (
            let got = r.Backend.zk.Measure.exit_value in
            if not (Int64.equal got reference) then
              Diverged
                {
                  stage = Vm b.Backend.name;
                  kind =
                    Error.Miscompile
                      {
                        expected = reference;
                        got;
                        oracle = "interp-vs-" ^ b.Backend.name;
                      };
                }
            else
              match
                Zkopt_settle.Settle.check_invariants ~backend:b.Backend.name
                  r
              with
              | exception e -> diverge (Price b.Backend.name) e
              | Error msg ->
                Diverged
                  {
                    stage = Price b.Backend.name;
                    kind = Error.Accounting_violation msg;
                  }
              | Ok () -> go rest))
      in
      go t.backends)

(** Build the base from the source and run the oracle stack. *)
let run_case ?faultplan ?fuel (t : t) : verdict =
  match build_source t.source with
  | exception e -> Diverged { stage = Base; kind = Error.classify e }
  | base -> run ?faultplan ?fuel t ~base
