(** RQ2 artifacts: Fig. 5 (standard -O levels), Fig. 6 (autotuning vs
    -O3 on the NPB and crypto suites), and the best/worst subsequence
    mining. *)

open Zkopt_report
open Zkopt_stats
module Catalog = Zkopt_passes.Catalog

let fig5 sweep =
  Report.section "Fig. 5 — standard optimization levels vs baseline";
  Report.paper
    "avg exec +60.5%% (R0) / +47.3%% (SP1); prove +55.5%% / +51.1%%; -O3 \
     best, -Oz weakest; -O0 regresses 19 programs on R0 and 9 on SP1";
  let rows =
    List.map
      (fun lvl ->
        let name = Catalog.level_name lvl in
        let avg vm metric =
          Stats.mean
            (List.map
               (fun p -> Sweep.improvement sweep ~program:p ~profile:name ~vm ~metric)
               (Sweep.all_programs sweep))
        in
        let regressions vm =
          List.length
            (List.filter
               (fun p ->
                 Sweep.improvement sweep ~program:p ~profile:name ~vm
                   ~metric:Sweep.Exec
                 < -1.0)
               (Sweep.all_programs sweep))
        in
        [ name;
          Report.pct (avg `R0 Sweep.Exec); Report.pct (avg `R0 Sweep.Prove);
          Report.pct (avg `Sp1 Sweep.Exec); Report.pct (avg `Sp1 Sweep.Prove);
          Report.int_s (regressions `R0); Report.int_s (regressions `Sp1) ])
      Catalog.all_levels
  in
  Report.table
    ~headers:
      [ "level"; "R0 exec"; "R0 prove"; "SP1 exec"; "SP1 prove"; "R0 regr";
        "SP1 regr" ]
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 6 — autotuning NPB + crypto                                    *)
(* ------------------------------------------------------------------ *)

let autotune_suites ~size ~iterations ?(jobs = 1) sweep =
  let module A = Zkopt_autotune.Autotune in
  let module Tuned = Zkopt_autotune.Tuned in
  let module Cache = Zkopt_exec.Cache in
  Report.section
    (Printf.sprintf
       "Fig. 6 — autotuned pass sequences vs -O3, NPB & crypto suites \
        (search engine, %d evals/prog, %d jobs)"
       iterations jobs);
  Report.paper
    "NPB: ~+17-19%% exec/prove on both zkVMs, npb-sp >2x; crypto: +10-12%% \
     exec, +3.5-6.8%% prove (precompiles flatten gains)";
  Report.note
    "(the paper runs OpenTuner for 1600 evaluations; scale with ZKOPT_GA_ITERS)";
  let progs =
    Zkopt_workloads.Workload.by_suite "npb"
    @ Zkopt_workloads.Workload.by_suite "a16z"
    @ Zkopt_workloads.Workload.by_suite "succinct"
  in
  (* one warm pool + compile/prefix caches across every (program, backend)
     search: genomes sharing pipeline prefixes — across seeds, too — reuse
     partially-optimized modules, and structurally identical results reuse
     compiled artifacts *)
  let artifacts = Cache.create ~capacity:1024 () in
  let prefixes = Cache.create ~capacity:2048 () in
  let results = ref [] in
  let entries = ref [] in
  let rows =
    Zkopt_exec.Drive.with_pool ~jobs None (fun pool ->
        List.concat_map
          (fun (w : Zkopt_workloads.Workload.t) ->
            List.map
              (fun (label, vm_cfg, vm) ->
                let build () = w.Zkopt_workloads.Workload.build size in
                let b = Zkopt_backend.Registry.find label in
                let target =
                  A.backend_target ~cache:artifacts ~program:w.name ~build b
                in
                let cfg =
                  {
                    (A.default ~seed:(Hashtbl.hash w.name) ~iterations ~jobs ())
                    with
                    A.pool;
                    prefix_cache = Some prefixes;
                  }
                in
                let o = A.search cfg ~targets:[ target ] in
                let ga = Option.get o.A.result in
                results := (w.name, label, ga) :: !results;
                let entry =
                  Tuned.entry ~program:w.name ~vm:label
                    ~cycles:ga.A.best.A.fitness ga.A.best.A.genome
                in
                entries := entry :: !entries;
                (* measure the winning sequence end-to-end vs -O3, under its
                   published profile name *)
                let o3 =
                  Sweep.get sweep w.Zkopt_workloads.Workload.name "-O3"
                in
                let c =
                  Zkopt_core.Measure.prepare ~build (Tuned.to_profile entry)
                in
                let tuned = Zkopt_core.Measure.run_zkvm vm_cfg c in
                let o3m = Sweep.zk_of o3 vm in
                let exec_speedup =
                  Stats.improvement_pct
                    ~base:o3m.Zkopt_core.Measure.exec_time_s
                    tuned.Zkopt_core.Measure.exec_time_s
                in
                let prove_speedup =
                  Stats.improvement_pct
                    ~base:o3m.Zkopt_core.Measure.prove_time_s
                    tuned.Zkopt_core.Measure.prove_time_s
                in
                [ entry.Tuned.name;
                  Report.pct exec_speedup; Report.pct prove_speedup;
                  string_of_int (List.length ga.A.best.A.genome) ])
              [ ("risc0", Zkopt_zkvm.Config.risc0, `R0);
                ("sp1", Zkopt_zkvm.Config.sp1, `Sp1) ])
          progs)
  in
  Report.table
    ~headers:[ "tuned profile"; "exec vs -O3"; "prove vs -O3"; "seq len" ]
    rows;
  let ps = Cache.stats prefixes and cs = Cache.stats artifacts in
  Report.note
    "engine: prefix cache %d hits / %d compiles (%.1f%%); artifact cache %d \
     hits / %d compiles (%.1f%%)"
    ps.Cache.hits ps.Cache.misses (Cache.hit_rate_pct ps) cs.Cache.hits
    cs.Cache.misses (Cache.hit_rate_pct cs);
  (match Tuned.save "tuned_profiles.json" (List.rev !entries) with
  | Ok () ->
    Report.note
      "published %d tuned profiles to tuned_profiles.json (consume with \
       `zkbench sweepall --tuned tuned_profiles.json`)"
      (List.length !entries)
  | Error msg -> Report.note "tuned-profile publication failed: %s" msg);
  !results

let subsequences results =
  Report.section "§4.2 — pass frequencies in best/worst tuned sequences";
  Report.paper
    "inline in 573/580 best sequences; licm in 385 worst; inline-then-licm \
     appears in both camps (context-sensitive)";
  let best_seqs =
    List.concat_map
      (fun (_, _, (ga : Zkopt_autotune.Autotune.result)) ->
        List.map (fun i -> i.Zkopt_autotune.Autotune.genome) ga.top5)
      results
  in
  let worst_seqs =
    List.concat_map
      (fun (_, _, (ga : Zkopt_autotune.Autotune.result)) ->
        List.map (fun i -> i.Zkopt_autotune.Autotune.genome) ga.bottom5)
      results
  in
  let nb = List.length best_seqs and nw = List.length worst_seqs in
  let row pass =
    [ pass;
      Printf.sprintf "%d/%d" (Zkopt_autotune.Miner.count_containing pass best_seqs) nb;
      Printf.sprintf "%d/%d" (Zkopt_autotune.Miner.count_containing pass worst_seqs) nw ]
  in
  Report.table ~headers:[ "pass"; "in best-5 seqs"; "in worst-5 seqs" ]
    (List.map row
       [ "inline"; "licm"; "mem2reg"; "simplifycfg"; "loop-unroll"; "reg2mem";
         "loop-extract"; "dce" ]);
  Report.note "ordered pair (a before b):";
  Report.note "  inline..licm  in best: %d   in worst: %d"
    (Zkopt_autotune.Miner.count_ordered_pair "inline" "licm" best_seqs)
    (Zkopt_autotune.Miner.count_ordered_pair "inline" "licm" worst_seqs);
  Report.note "  licm..inline  in best: %d   in worst: %d"
    (Zkopt_autotune.Miner.count_ordered_pair "licm" "inline" best_seqs)
    (Zkopt_autotune.Miner.count_ordered_pair "licm" "inline" worst_seqs);
  let module M = Zkopt_autotune.Miner in
  let take n xs = List.filteri (fun i _ -> i < n) xs in
  Report.note "most frequent ordered pairs mined from best-5 sequences:";
  List.iter
    (fun ((a, b), c) -> Report.note "  %-14s .. %-14s : %d" a b c)
    (take 6 (M.pair_table best_seqs));
  let contrasts = M.contrast_mine ~best:best_seqs ~worst:worst_seqs () in
  if contrasts <> [] then
    Report.table
      ~headers:[ "mined subsequence"; "best"; "worst"; "contrast" ]
      (List.map
         (fun (c : M.contrast) ->
           [ String.concat ".." c.M.seq;
             Printf.sprintf "%d/%d" c.M.support_best nb;
             Printf.sprintf "%d/%d" c.M.support_worst nw;
             Printf.sprintf "%+.2f" c.M.score ])
         (take 8 contrasts))

let run ~size ~iterations ?(jobs = 1) sweep =
  fig5 sweep;
  let results = autotune_suites ~size ~iterations ~jobs sweep in
  subsequences results
