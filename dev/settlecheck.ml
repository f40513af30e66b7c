(** Settlement-engine smoke gate.

    Asserts the three contracts the settlement subsystem ships with:

    - the §1 gas fixture: the EVM verification-gas model reproduces the
      measured 2,825,166-gas breakdown exactly;
    - determinism: a fixed settlement sweep (2 programs x 2 profiles x
      every registered backend, quick sizes) streams byte-identical
      rows at [jobs = 1] and [jobs = 4], and resumes from a sheared
      checkpoint tail to the same byte-identical stream;
    - the input key: a warm pass over the first pass's compile cache
      streams the same rows and runs no pass pipeline;
    - the settled objective: a fixed-seed [settled_target] autotune
      checkpoints, and resuming after its log is sheared mid-row
      replays to the same best genome.

    Part of the @smoke alias; see dev/check.sh. *)

module A = Zkopt_autotune.Autotune
module Cache = Zkopt_exec.Cache
module Workload = Zkopt_workloads.Workload
module Profile = Zkopt_core.Profile
module Registry = Zkopt_backend.Registry
module Gas = Zkopt_settle.Gas
module Ssweep = Zkopt_settle.Ssweep
module Seedfmt = Zkopt_devutil.Seedfmt

let () = Zkopt_valida.Vbackend.ensure ()

let tool = "settlecheck"
let seed = 7

(* ---- §1 gas fixture --------------------------------------------------- *)

let check_gas_fixture () =
  let g = Gas.of_root 20 in
  if g.Gas.total <> 2_825_166 then
    Seedfmt.fail ~tool ~seed "gas fixture drifted: %d <> 2825166 at log_n=20"
      g.Gas.total;
  if Gas.per_doubling_gas <> 36_538 then
    Seedfmt.fail ~tool ~seed "per-doubling gas drifted: %d <> 36538"
      Gas.per_doubling_gas

(* ---- sweep determinism + resume --------------------------------------- *)

let sweep_config ?checkpoint ?(cache = Cache.create ~capacity:256 ()) ~jobs
    () =
  {
    (Ssweep.default ~size:Workload.Quick ~jobs ()) with
    Ssweep.programs = [ "factorial"; "loop-sum" ];
    profiles = [ Profile.Baseline; Profile.Level Zkopt_passes.Catalog.O2 ];
    backends = Registry.all ();
    cache = Some cache;
    checkpoint;
  }

(* Drop the last complete row and leave a torn fragment of the one
   before it — the shape a kill mid-write leaves on disk. *)
let shear path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let all = really_input_string ic n in
  close_in ic;
  let lines = String.split_on_char '\n' all in
  let lines = List.filter (fun l -> l <> "") lines in
  let keep = List.filteri (fun i _ -> i < List.length lines - 1) lines in
  match List.rev keep with
  | [] -> Seedfmt.fail ~tool ~seed "checkpoint too short to shear"
  | last :: prefix ->
    let torn = String.sub last 0 (String.length last / 2) in
    let oc = open_out_bin path in
    List.iter
      (fun l ->
        output_string oc l;
        output_char oc '\n')
      (List.rev prefix);
    output_string oc torn (* no newline: torn tail *);
    close_out oc

let check_sweep () =
  let cache = Cache.create ~capacity:256 () in
  let o1 = Ssweep.run (sweep_config ~cache ~jobs:1 ()) in
  let o4 = Ssweep.run (sweep_config ~jobs:4 ()) in
  if o1.Ssweep.rows <> o4.Ssweep.rows then
    Seedfmt.fail ~tool ~seed
      "settlement rows diverge across jobs: %d at jobs=1 vs %d at jobs=4"
      (List.length o1.Ssweep.rows)
      (List.length o4.Ssweep.rows);
  if not (o1.Ssweep.completed && o4.Ssweep.completed) then
    Seedfmt.fail ~tool ~seed "sweep did not complete";
  (* a warm pass over the first pass's cache: every cell's inputs
     resolve to their module digest, so no pass pipeline runs *)
  let warm = Ssweep.run (sweep_config ~cache ~jobs:1 ()) in
  if warm.Ssweep.rows <> o1.Ssweep.rows then
    Seedfmt.fail ~tool ~seed "warm-cache rows diverge from the cold pass";
  if warm.Ssweep.prepared <> 0 then
    Seedfmt.fail ~tool ~seed
      "warm-cache settlement sweep ran %d pass pipelines (need 0)"
      warm.Ssweep.prepared;
  (* checkpoint, shear, resume: the resumed stream must be byte-identical
     and must actually replay from the surviving rows *)
  let ckpt = Filename.temp_file "settlecheck" ".ckpt" in
  let oc = Ssweep.run (sweep_config ~checkpoint:ckpt ~jobs:4 ()) in
  if oc.Ssweep.rows <> o1.Ssweep.rows then
    Seedfmt.fail ~tool ~seed "checkpointed rows diverge from plain run";
  shear ckpt;
  let orr = Ssweep.run (sweep_config ~checkpoint:ckpt ~jobs:4 ()) in
  Sys.remove ckpt;
  if orr.Ssweep.rows <> o1.Ssweep.rows then
    Seedfmt.fail ~tool ~seed "resumed rows diverge from the original stream";
  if orr.Ssweep.replayed = 0 then
    Seedfmt.fail ~tool ~seed "resume replayed nothing from the checkpoint";
  if orr.Ssweep.cells = 0 then
    Seedfmt.fail ~tool ~seed "shear left nothing to re-price";
  List.length o1.Ssweep.rows

(* ---- the settled autotune objective ----------------------------------- *)

let check_settled_tune () =
  let w = Workload.find "fibonacci" in
  let build () = w.Workload.build Workload.Quick in
  let artifacts = Cache.create ~capacity:256 () in
  let target =
    A.settled_target ~cache:artifacts ~program:"fibonacci" ~build
      (Registry.find "risc0")
  in
  let ckpt = Filename.temp_file "settlecheck" ".tune" in
  let run () =
    A.search
      {
        (A.default ~seed ~population:4 ~iterations:8 ~jobs:2 ()) with
        A.checkpoint = Some ckpt;
        resume = true;
      }
      ~targets:[ target ]
  in
  let o1 = run () in
  let best1 =
    match o1.A.result with
    | Some ga -> ga.A.best
    | None ->
      Seedfmt.fail ~tool ~seed "settled tune produced no result";
      Seedfmt.finish tool;
      exit 1
  in
  if best1.A.fitness <= 0 then
    Seedfmt.fail ~tool ~seed "settled fitness %d not positive"
      best1.A.fitness;
  shear ckpt;
  let o2 = run () in
  Sys.remove ckpt;
  (match o2.A.result with
  | Some ga ->
    if ga.A.best.A.genome <> best1.A.genome
       || ga.A.best.A.fitness <> best1.A.fitness
    then
      Seedfmt.fail ~tool ~seed
        "resumed settled tune diverged: %d vs %d micro-units"
        ga.A.best.A.fitness best1.A.fitness
  | None -> Seedfmt.fail ~tool ~seed "resumed settled tune has no result");
  if o2.A.resumed = 0 then
    Seedfmt.fail ~tool ~seed "resumed settled tune replayed nothing";
  best1.A.fitness

let () =
  Zkopt_workloads.Suite.check_composition ();
  check_gas_fixture ();
  let rows = check_sweep () in
  let fitness = check_settled_tune () in
  Printf.printf
    "settlecheck: gas fixture exact, %d sweep rows stable across jobs, \
     resume and a warm cache (0 warm pipelines), settled tune best %d \
     micro-units\n"
    rows fitness;
  Seedfmt.finish tool
