(** Autotune-engine smoke gate.

    Runs a small fixed-seed tune (2 generations, risc0 + sp1 targets)
    three times and asserts the engine's two core contracts:

    - determinism: the checkpoint row stream is byte-identical at
      [jobs = 1] and [jobs = 4] over fresh caches, with the prefix
      cache live (hits > 0) in both runs;
    - warm reuse: re-running the same tune over the warm prefix cache
      serves at least half its module lookups from cache.

    Part of the @smoke alias; see dev/check.sh. *)

module A = Zkopt_autotune.Autotune
module Cache = Zkopt_exec.Cache
module Workload = Zkopt_workloads.Workload
module Seedfmt = Zkopt_devutil.Seedfmt

let tool = "tunecheck"

let targets ~artifacts =
  let w = Workload.find "fibonacci" in
  let build () = w.Workload.build Workload.Quick in
  List.map
    (fun vm ->
      A.backend_target ~cache:artifacts ~program:"fibonacci" ~build
        (Zkopt_backend.Registry.find vm))
    [ "risc0"; "sp1" ]

let tune ~jobs ~prefixes ~targets =
  let rows = ref [] in
  let cfg =
    {
      (A.default ~seed:7 ~population:4 ~iterations:8 ~jobs ()) with
      A.prefix_cache = Some prefixes;
      on_row = (fun r -> rows := r :: !rows);
    }
  in
  let o = A.search cfg ~targets in
  (o, List.rev !rows)

let () =
  (* referencing Suite forces the workload registrations to link *)
  Zkopt_workloads.Suite.check_composition ();
  let artifacts = Cache.create ~capacity:256 () in
  let ts = targets ~artifacts in
  let cold1 = Cache.create ~capacity:1024 () in
  let cold4 = Cache.create ~capacity:1024 () in
  let o1, rows1 = tune ~jobs:1 ~prefixes:cold1 ~targets:ts in
  let o4, rows4 = tune ~jobs:4 ~prefixes:cold4 ~targets:ts in
  if rows1 <> rows4 then
    Seedfmt.fail ~tool ~seed:7
      "rows diverge across jobs: %d rows at jobs=1 vs %d at jobs=4"
      (List.length rows1) (List.length rows4);
  (match (o1.A.result, o4.A.result) with
  | Some r1, Some r4 ->
    if r1.A.best.A.genome <> r4.A.best.A.genome then
      Seedfmt.fail ~tool ~seed:7 "best genome diverges across jobs";
    if List.length r1.A.history <> 2 then
      Seedfmt.fail ~tool ~seed:7 "expected 2 generations, saw %d"
        (List.length r1.A.history)
  | _ -> Seedfmt.fail ~tool ~seed:7 "search produced no result");
  List.iter
    (fun (label, (o : A.outcome)) ->
      if o.A.cache_stats.A.prefix.Cache.hits <= 0 then
        Seedfmt.fail ~tool ~seed:7 "prefix cache never hit at %s" label)
    [ ("jobs=1", o1); ("jobs=4", o4) ];
  (* warm pass: identical seed over the jobs=4 prefix cache must serve
     at least half its lookups from cache *)
  let ow, rows_w = tune ~jobs:4 ~prefixes:cold4 ~targets:ts in
  if rows_w <> rows4 then
    Seedfmt.fail ~tool ~seed:7 "warm rerun rows diverge from cold run";
  let ps = ow.A.cache_stats.A.prefix in
  let rate = Cache.hit_rate_pct ps in
  if rate < 50.0 then
    Seedfmt.fail ~tool ~seed:7
      "warm prefix hit rate %.1f%% < 50%% (%d hits / %d misses)" rate
      ps.Cache.hits ps.Cache.misses;
  Printf.printf
    "tunecheck: %d rows, warm prefix hit rate %.1f%% (%d hits / %d misses)\n"
    (List.length rows1) rate ps.Cache.hits ps.Cache.misses;
  Seedfmt.finish tool
