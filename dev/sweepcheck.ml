(* Multicore sweep smoke gate (dune build @smoke):

   1. determinism — a 2-domain mini-sweep (3 programs x 9 profiles) must
      reproduce the sequential run cell-for-cell;
   2. memoization — re-running the same cells through a shared compile
      cache must serve >90% of lookups without compiling (in practice
      100%: every digest is resident after the first pass), must run no
      pass pipeline (every cell's inputs resolve to their module digest),
      and must execute no guest: every cached artifact keeps its
      measurements.  The cold 2-domain pass may race two domains onto
      one artifact, so only the warm pass's guest count is gated;
   3. the disk store — a fresh cache over the store a cold pass wrote
      must run no pipeline, compile nothing, execute no guest and decode
      no artifact: the store keeps every completed run of its
      artifacts, and a lookup that those runs answer reads no file. *)

open Zkopt_core
module H = Zkopt_harness.Harness
module Checkpoint = Zkopt_harness.Checkpoint
module Cache = Zkopt_exec.Cache
module Backend = Zkopt_backend.Backend
module Seedfmt = Zkopt_devutil.Seedfmt

let tool = "sweepcheck"

let canonical (points : (string * string, Zkopt_harness.Cell.point) Hashtbl.t) =
  Hashtbl.fold (fun _ p acc -> Checkpoint.encode_point p :: acc) points []
  |> List.sort compare |> String.concat "\n"

(* [b] with every execution of its artifacts (zkVM and CPU model)
   counted in [runs], beneath the memo the compile cache adds, and every
   artifact it decodes from the disk store in [decodes] *)
let counting ~runs ~decodes (b : Backend.t) : Backend.t =
  let wrap (c : Backend.compiled) =
    let measure ~vm ?fault ?fuel ?sink () =
      Atomic.incr runs;
      c.Backend.measure ~vm ?fault ?fuel ?sink ()
    in
    let measure_cpu =
      match c.Backend.measure_cpu with
      | None -> None
      | Some run ->
        Some
          (fun ?fuel ?sink () ->
            Atomic.incr runs;
            run ?fuel ?sink ())
    in
    { c with Backend.measure; measure_cpu }
  in
  {
    b with
    Backend.compile = (fun m -> wrap (b.Backend.compile m));
    decode =
      (fun m s ->
        Atomic.incr decodes;
        Option.map wrap (b.Backend.decode m s));
  }

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let () =
  let programs = [ "fibonacci"; "factorial"; "loop-sum" ] in
  let profiles =
    [
      Profile.Baseline;
      Profile.Single_pass "licm";
      Profile.Single_pass "mem2reg";
      Profile.Single_pass "gvn";
      Profile.Single_pass "inline";
      Profile.Single_pass "simplifycfg";
      Profile.Level Zkopt_passes.Catalog.O1;
      Profile.Level Zkopt_passes.Catalog.O2;
      Profile.Level Zkopt_passes.Catalog.O3;
    ]
  in
  let runs = Atomic.make 0 and decodes = Atomic.make 0 in
  let cfg ?backends jobs cache =
    {
      (H.default ~size:Zkopt_workloads.Workload.Quick) with
      H.programs = Some programs;
      profiles = Some profiles;
      jobs;
      cache;
      backends;
    }
  in
  let counted =
    List.map
      (fun vm -> counting ~runs ~decodes (Zkopt_backend.Registry.find vm))
      [ "risc0"; "sp1" ]
  in
  let cells = List.length programs * List.length profiles in
  let seq = H.run (cfg 1 None) in
  if Hashtbl.length seq.H.points <> cells then
    Seedfmt.fail ~tool "sequential run measured %d of %d cells"
      (Hashtbl.length seq.H.points) cells;
  let shared = Cache.create () in
  let par = H.run (cfg ~backends:counted 2 (Some shared)) in
  if not (String.equal (canonical seq.H.points) (canonical par.H.points)) then
    Seedfmt.fail ~tool "2-domain sweep diverged from the sequential run";
  (* second pass over the same cells: the shared cache is warm, so
     (almost) nothing may compile, and no guest may run *)
  Atomic.set runs 0;
  let again = H.run (cfg ~backends:counted 2 (Some shared)) in
  if not (String.equal (canonical seq.H.points) (canonical again.H.points)) then
    Seedfmt.fail ~tool "warm-cache sweep diverged from the sequential run";
  let rate = Cache.hit_rate_pct again.H.cache_stats in
  if rate <= 90.0 then
    Seedfmt.fail ~tool "warm-cache hit rate %.1f%% (need >90%%)" rate;
  let warm_runs = Atomic.get runs in
  if warm_runs <> 0 then
    Seedfmt.fail ~tool "warm-cache sweep executed %d guest runs (need 0)"
      warm_runs;
  if again.H.prepared <> 0 then
    Seedfmt.fail ~tool "warm-cache sweep ran %d pass pipelines (need 0)"
      again.H.prepared;
  (* a second process over the store the first one wrote *)
  let dir = Filename.temp_file "sweepcheck" ".store" in
  Sys.remove dir;
  let cold = H.run (cfg 1 (Some (Cache.create ~dir ()))) in
  Atomic.set runs 0;
  Atomic.set decodes 0;
  let disk = H.run (cfg ~backends:counted 1 (Some (Cache.create ~dir ()))) in
  let disk_runs = Atomic.get runs and disk_decodes = Atomic.get decodes in
  if not (String.equal (canonical seq.H.points) (canonical disk.H.points)) then
    Seedfmt.fail ~tool "warm disk-store sweep diverged from the sequential run";
  let disk_compiles = disk.H.cache_stats.Cache.misses in
  if disk.H.prepared <> 0 || disk_compiles <> 0 then
    Seedfmt.fail ~tool
      "warm disk-store sweep ran %d pass pipelines and %d compiles (need 0 \
       and 0; the cold pass ran %d)"
      disk.H.prepared disk_compiles cold.H.prepared;
  if disk_runs <> 0 then
    Seedfmt.fail ~tool "warm disk-store sweep executed %d guest runs (need 0)"
      disk_runs;
  if disk_decodes <> 0 then
    Seedfmt.fail ~tool "warm disk-store sweep decoded %d artifacts (need 0)"
      disk_decodes;
  rm_rf dir;
  Printf.printf
    "sweepcheck: %d cells, 2-domain run deterministic, warm-cache hit rate \
     %.1f%%, %d warm guest runs, %d warm pipelines, %d warm disk-store \
     pipelines and compiles, %d warm disk-store guest runs, %d warm \
     disk-store decodes\n"
    cells rate warm_runs again.H.prepared (disk.H.prepared + disk_compiles)
    disk_runs disk_decodes;
  Seedfmt.finish tool
