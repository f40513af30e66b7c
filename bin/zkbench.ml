(** zkbench — the command-line front end.

    {v
    zkbench list                         # all 58 programs
    zkbench passes                       # the 64 swept passes
    zkbench backends                     # the registered zkVM backends
    zkbench run fibonacci --level O3     # measure one program
    zkbench run npb-lu --pass licm       # one pass vs baseline
    zkbench profile npb-lu --profile baseline --out base.prof
    zkbench profile npb-lu --pass licm --diff base.prof
                                         # where did licm's cycles go?
    zkbench sweep fibonacci              # all 71 profiles on one program
    zkbench sweepall --quick --checkpoint sweep.ckpt
                                         # fault-tolerant full-matrix sweep;
                                         # re-run the same command to resume
    zkbench settle --quick --backends risc0,sp1,valida
                                         # price the verifier: proof sizes,
                                         # aggregation tree, EVM gas
    zkbench fuzz --seeds 1..500 --jobs 4 --minimize --corpus corpus
                                         # differential fuzzing campaign
    zkbench tune npb-sp --backend risc0 --iterations 1600 --jobs 8
                                         # full-budget parallel search with
                                         # prefix caching and --profile-out
    zkbench sweepall --tuned tuned.json  # tuned profiles join the matrix
    zkbench asm fibonacci --level O3     # dump the RV32 assembly
    zkbench serve --dir _zkserve &       # persistent sweep service
    zkbench submit sweep --programs factorial,sha256 --quick
                                         # queue a job; rows stream back
    zkbench status                       # jobs + shared-cache counters
    zkbench shutdown                     # graceful drain (resumable)
    v}

    The engine commands ([sweepall], [settle], [fuzz], [tune]) and
    [submit <kind>] are two doors onto one {!Zkopt_serve.Job.spec}: both
    parse a kind's flags with the same terms below, and {!Job} turns the
    spec into its engine config.  A bad name is a usage error (exit 124)
    that names the value. *)

open Cmdliner
open Zkopt_core
module Json = Zkopt_report.Json
module Backend = Zkopt_backend.Backend
module Registry = Zkopt_backend.Registry
module Workload = Zkopt_workloads.Workload
module Cache = Zkopt_exec.Cache
module Case = Zkopt_fuzz.Case
module Job = Zkopt_serve.Job

(* the valida backend registers itself at module init; force linkage *)
let () = Zkopt_valida.Vbackend.ensure ()

(* [prog]'s fresh-module builder; the name was checked by {!program_c}. *)
let builder prog quick =
  let w = Job.get (Job.workload prog) in
  fun () -> w.Workload.build (Job.size quick)

let show_metrics (zk : Measure.zk_metrics) =
  Printf.printf "  %-6s %10d cycles  exec %8.4fs  prove %8.2fs  %2d seg  paging %8d\n"
    zk.Measure.vm zk.Measure.cycles zk.Measure.exec_time_s zk.Measure.prove_time_s
    zk.Measure.segments zk.Measure.paging_cycles

let json_of_zk (zk : Measure.zk_metrics) : Json.t =
  Json.Obj
    [
      ("vm", Json.Str zk.Measure.vm);
      ("cycles", Json.Int zk.Measure.cycles);
      ("exec_time_s", Json.Float zk.Measure.exec_time_s);
      ("prove_time_s", Json.Float zk.Measure.prove_time_s);
      ("segments", Json.Int zk.Measure.segments);
      ("paging_cycles", Json.Int zk.Measure.paging_cycles);
      ("page_ins", Json.Int zk.Measure.page_ins);
      ("page_outs", Json.Int zk.Measure.page_outs);
      ("loads", Json.Int zk.Measure.loads);
      ("stores", Json.Int zk.Measure.stores);
    ]

let json_of_cpu (cpu : Measure.cpu_metrics) : Json.t =
  Json.Obj
    [
      ("cycles", Json.Float cpu.Measure.cpu_cycles);
      ("time_s", Json.Float cpu.Measure.cpu_time_s);
      ("mispredicts", Json.Int cpu.Measure.mispredicts);
      ("cache_misses", Json.Int cpu.Measure.cache_misses);
    ]

(* ---- one converter per name ------------------------------------------- *)

(* A name keeps the form it was given in once [check] resolves it; a bad
   name is a usage error naming the value. *)
let name_c ~docv check =
  Arg.conv' ~docv
    ((fun s -> Result.map (fun _ -> s) (check s)), Format.pp_print_string)

let program_c = name_c ~docv:"PROGRAM" Job.workload
let profile_c = name_c ~docv:"PROFILE" Profile.of_name
let pipeline_c = name_c ~docv:"SPEC" Case.pipeline_of_spec

let backend_c ~fuzz =
  name_c ~docv:"BACKEND" (if fuzz then Job.fuzz_backend else Job.backend)

(* A profile-name converter that accepts only the profiles [pick] keeps. *)
let profile_kind_c ~docv ~what ~hint pick =
  Arg.conv' ~docv
    ( (fun s ->
        match Profile.of_name s with
        | Ok p when pick p -> Ok p
        | _ -> Error (Printf.sprintf "unknown %s %S (%s)" what s hint)),
      fun ppf p -> Format.pp_print_string ppf (Profile.name p) )

let seeds_c =
  Arg.conv' ~docv:"A..B"
    ( (fun s ->
        Option.to_result
          ~none:(Printf.sprintf "bad seed range %S (expected N or A..B)" s)
          (Zkopt_devutil.Seedfmt.range_of_string s)),
      fun ppf (lo, hi) -> Format.fprintf ppf "%d..%d" lo hi )

(* ---- one term per flag ------------------------------------------------ *)

let prog_arg =
  Arg.(required & pos 0 (some program_c) None & info [] ~docv:"PROGRAM")

let program_opt =
  Arg.(required & opt (some program_c) None
       & info [ "program" ] ~docv:"NAME" ~doc:"Program to run")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Use reduced (test) input sizes")

let json_arg ?(doc = "Emit machine-readable JSON instead of tables") () =
  Arg.(value & flag & info [ "json" ] ~doc)

(* --pass, else --level, else --zk-o3, else the baseline *)
let profile_sel_arg =
  let level =
    Arg.(value
         & opt
             (some
                (profile_kind_c ~docv:"LEVEL" ~what:"level"
                   ~hint:"O0..O3, Os or Oz" (function
                  | Profile.Level _ -> true
                  | _ -> false)))
             None
         & info [ "O"; "level" ] ~docv:"LEVEL"
             ~doc:"Optimization level (O0..O3, Os, Oz)")
  in
  let pass =
    Arg.(value
         & opt
             (some
                (profile_kind_c ~docv:"PASS" ~what:"pass"
                   ~hint:"see `zkbench passes`" (function
                  | Profile.Single_pass _ -> true
                  | _ -> false)))
             None
         & info [ "pass" ] ~docv:"PASS"
             ~doc:"Run a single pass instead of a level")
  in
  let zk_o3 =
    Arg.(value & flag
         & info [ "zk-o3" ] ~doc:"Use the zkVM-aware modified -O3 pipeline")
  in
  let pick level pass zk_o3 =
    match (pass, level) with
    | Some p, _ | None, Some p -> p
    | None, None -> if zk_o3 then Profile.Zkvm_o3 else Profile.Baseline
  in
  Term.(const pick $ level $ pass $ zk_o3)

let profile_name_arg ~absent =
  Arg.(value & opt (some profile_c) None
       & info [ "profile" ] ~docv:"NAME" ~absent
           ~doc:"Profile by name: baseline, a level (O0..Oz), zk-o3, or any \
                 swept pass")

let jobs_arg ~doc =
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:(doc ^ " (default: the recommended domain count of this \
                          machine)"))
  in
  Term.(const (function
          | Some n -> max 1 n
          | None -> Zkopt_exec.Pool.recommended_jobs ())
        $ jobs)

let checkpoint_arg ?default ~doc () =
  Arg.(value & opt (some string) default
       & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let fresh_arg =
  Arg.(value & flag
       & info [ "fresh" ]
           ~doc:"Discard an existing checkpoint (default is to resume)")

let failure_budget_arg ~doc =
  Arg.(value & opt (some int) None & info [ "failure-budget" ] ~docv:"N" ~doc)

(* --cache-dir and --no-disk-cache: the compile cache of a one-shot run *)
let cache_arg =
  let dir =
    Arg.(value & opt string "_zkcache"
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"On-disk compile-cache directory, shared across runs; a \
                   build reads only what the same library sources wrote")
  in
  let no_disk =
    Arg.(value & flag
         & info [ "no-disk-cache" ]
             ~doc:"Keep the compile cache in memory only (no $(b,--cache-dir))")
  in
  Term.(const (fun dir no_disk ->
            Cache.create ?dir:(if no_disk then None else Some dir) ())
        $ dir $ no_disk)

let programs_arg ~doc =
  Arg.(value & opt (some (list program_c)) None
       & info [ "programs" ] ~docv:"NAMES" ~doc)

let profiles_arg ~doc =
  Arg.(value & opt (some (list profile_c)) None
       & info [ "profiles" ] ~docv:"NAMES" ~doc)

let backends_arg ?(fuzz = false) ~doc () =
  Arg.(value & opt (some (list (backend_c ~fuzz))) None
       & info [ "backends" ] ~docv:"NAMES" ~doc)

let limit_arg ~doc =
  Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N" ~doc)

let vm_arg ~doc =
  Arg.(value & opt (backend_c ~fuzz:false) Job.default_vm
       & info [ "backend"; "vm" ] ~docv:"NAME"
           ~doc:(doc ^ " (see `zkbench backends`)"))

(* ---- one term per spec kind, shared by both doors ---------------------- *)

let sweep_spec : Job.sweep Term.t =
  let make programs profiles quick backends limit : Job.sweep =
    { programs; profiles; quick; backends; limit }
  in
  Term.(const make
        $ programs_arg ~doc:"Comma-separated programs (default: the full suite)"
        $ profiles_arg ~doc:"Comma-separated profiles (default: all 71)"
        $ quick_arg
        $ backends_arg
            ~doc:"Comma-separated backend columns to measure (default: \
                  risc0,sp1; see `zkbench backends`)" ()
        $ limit_arg
            ~doc:"Measure at most N new cells then stop (the checkpoint \
                  keeps the rest resumable)")

let profile_cell_spec : Job.profile_cell Term.t =
  let make program profile vm quick : Job.profile_cell =
    { program; profile = Option.value profile ~default:Job.default_profile;
      vm; quick }
  in
  Term.(const make $ program_opt
        $ profile_name_arg ~absent:Job.default_profile
        $ vm_arg ~doc:"Backend to measure" $ quick_arg)

let autotune_spec program : Job.autotune Term.t =
  let iters =
    Arg.(value & opt int Job.default_iters
         & info [ "iterations"; "iters" ] ~docv:"N"
             ~doc:"Genome evaluations (the paper's deep dives use 1600)")
  in
  let seed =
    Arg.(value & opt int Job.default_seed
         & info [ "seed" ] ~docv:"N" ~doc:"Search seed")
  in
  let population =
    Arg.(value & opt int Job.default_population
         & info [ "population" ] ~docv:"N" ~doc:"Genomes per generation")
  in
  let make program iters vm quick seed population : Job.autotune =
    { program; iters; vm; quick; seed; population }
  in
  Term.(const make $ program $ iters $ vm_arg ~doc:"Backend objective"
        $ quick_arg $ seed $ population)

let fuzz_spec : Job.fuzz Term.t =
  let seeds =
    Arg.(value & opt seeds_c Job.default_seeds
         & info [ "seeds" ] ~docv:"A..B"
             ~doc:"Random-program seed range; \"N\" means 1..N")
  in
  let pipelines =
    Arg.(value & opt (list pipeline_c) Job.default_pipelines
         & info [ "pipelines" ] ~docv:"SPECS"
             ~doc:"Comma-separated pipeline specs: baseline, a level (O3 or \
                   -O3), zk-o3, a pass name, or a;b;c / zk:a;b;c sequences")
  in
  let make (seed_lo, seed_hi) pipelines backends limit : Job.fuzz =
    { seed_lo; seed_hi; pipelines; backends; limit }
  in
  Term.(const make $ seeds $ pipelines
        $ backends_arg ~fuzz:true
            ~doc:"Comma-separated differential columns (default: every \
                  registered backend; \"sp1-dense\" adds the dense-shard \
                  \xc2\xa74.2 reproduction config)" ()
        $ limit_arg
            ~doc:"Cap the campaign at N cases (the checkpoint keeps the \
                  rest resumable)")

let settle_spec : Job.settle Term.t =
  let arity =
    Arg.(value & opt int Job.default_arity
         & info [ "arity" ] ~docv:"N"
             ~doc:"Aggregation fan-in of the recursion tree")
  in
  let make programs profiles backends quick arity : Job.settle =
    { programs; profiles; backends; quick; arity }
  in
  Term.(const make
        $ programs_arg
            ~doc:"Comma-separated programs to price (default: the full suite)"
        $ profiles_arg
            ~doc:("Comma-separated profiles (default: "
                 ^ String.concat "," (List.map Profile.name Job.settle_profiles)
                 ^ ")")
        $ backends_arg
            ~doc:"Comma-separated backends to price (default: every \
                  registered backend)" ()
        $ quick_arg $ arity)

(* ---- subcommands --------------------------------------------------- *)

let list_cmd =
  let run () =
    Zkopt_workloads.Suite.check_composition ();
    List.iter
      (fun (w : Workload.t) ->
        Printf.printf "%-28s %-10s%s\n" w.Workload.name w.Workload.suite
          (if w.Workload.uses_precompiles then "  [precompiles]" else ""))
      (Workload.all ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List the 58 benchmark programs")
    Term.(const run $ const ())

let passes_cmd =
  let run () =
    List.iter
      (fun p ->
        let pass = Zkopt_passes.Pass.find p in
        Printf.printf "%-28s %s\n" p pass.Zkopt_passes.Pass.descr)
      Zkopt_passes.Catalog.swept_passes
  in
  Cmd.v (Cmd.info "passes" ~doc:"List the 64 swept optimization passes")
    Term.(const run $ const ())

let run_cmd =
  let run prog quick profile json =
    let m = Measure.prepare_ir ~build:(builder prog quick) profile in
    let cache = Cache.create () and fp = Zkopt_exec.Fingerprint.of_modul m in
    let compiled b = Backend.compile_cached ~cache b ~fp (Lazy.from_val m) in
    let backends = Registry.all () in
    let zks =
      List.map
        (fun (b : Backend.t) ->
          ((compiled b).Backend.measure ~vm:b.Backend.name ()).Backend.zk)
        backends
    in
    let static_instrs = (compiled (List.hd backends)).Backend.static_instrs () in
    let cpu =
      List.find_map (fun b -> (compiled b).Backend.measure_cpu) backends
      |> Option.map (fun f -> f ?fuel:None ?sink:None ())
    in
    if json then
      print_endline
        (Json.to_string
           (Json.Obj
              ([
                 ("program", Json.Str prog);
                 ("profile", Json.Str (Profile.name profile));
                 ("static_instrs", Json.Int static_instrs);
                 ("zkvms", Json.Arr (List.map json_of_zk zks));
               ]
              @
              match cpu with
              | Some c -> [ ("cpu", json_of_cpu c) ]
              | None -> [])))
    else begin
      Printf.printf "%s under %s:\n" prog (Profile.name profile);
      List.iter show_metrics zks;
      (match cpu with
      | Some cpu ->
        Printf.printf "  %-6s %10.0f cycles  time %8.6fs  (CPU model)\n" "cpu"
          cpu.Measure.cpu_cycles cpu.Measure.cpu_time_s
      | None -> ());
      Printf.printf "  static size: %d instructions\n" static_instrs
    end
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Measure one program under a profile on every registered backend")
    Term.(const run $ prog_arg $ quick_arg $ profile_sel_arg $ json_arg ())

let profile_cmd =
  let top_arg =
    Arg.(value & opt int 20 & info [ "top" ] ~docv:"N" ~doc:"Rows per table")
  in
  let diff_arg =
    Arg.(value & opt (some string) None
         & info [ "diff" ] ~docv:"FILE"
             ~doc:"Diff this run against a baseline profile saved with --out")
  in
  let folded_arg =
    Arg.(value & opt (some string) None
         & info [ "folded" ] ~docv:"FILE"
             ~doc:"Write folded call stacks (flamegraph.pl input) to FILE")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Save the profile to FILE for a later --diff")
  in
  let run prog quick selected named vm top diff folded out json =
    let profile =
      match named with
      | Some n -> Job.get (Profile.of_name n)
      | None -> selected
    in
    let b = Job.get (Job.backend vm) in
    let m = Measure.prepare_ir ~build:(builder prog quick) profile in
    let c = b.Backend.compile m in
    let label = Profile.name profile in
    let metrics, prof = Zkopt_prof.Driver.profile_backend ~label b c in
    let zk = metrics.Backend.zk in
    (match out with Some f -> Zkopt_prof.Profile.save prof f | None -> ());
    (match folded with
    | Some f ->
      let oc = open_out f in
      Zkopt_prof.Render.folded oc prof;
      close_out oc
    | None -> ());
    match diff with
    | Some basefile ->
      let base = Zkopt_prof.Profile.load basefile in
      if json then
        print_endline
          (Json.to_string (Zkopt_prof.Render.json_of_diff ~base ~cand:prof ()))
      else Zkopt_prof.Render.diff ~top ~base ~cand:prof ()
    | None ->
      if json then
        print_endline
          (Json.to_string
             (Json.Obj
                [
                  ("program", Json.Str prog);
                  ( "metrics",
                    Json.Obj
                      [
                        ("vm", Json.Str zk.Measure.vm);
                        ("cycles", Json.Int zk.Measure.cycles);
                        ("segments", Json.Int zk.Measure.segments);
                        ("paging_cycles", Json.Int zk.Measure.paging_cycles);
                      ] );
                  ("profile", Zkopt_prof.Render.json_of_profile prof);
                ]))
      else begin
        Printf.printf "%s under %s [vm=%s]: %d cycles, %d segments\n" prog
          label zk.Measure.vm zk.Measure.cycles zk.Measure.segments;
        Zkopt_prof.Render.table ~top prof
      end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Attribute every zkVM cycle (exec, paging, padding, CPU model) \
             to the IR site that caused it; optionally diff two profiles")
    Term.(const run $ prog_arg $ quick_arg $ profile_sel_arg
          $ profile_name_arg ~absent:"the --pass/--level/--zk-o3 choice"
          $ vm_arg ~doc:"Backend to attribute" $ top_arg
          $ diff_arg $ folded_arg $ out_arg $ json_arg ())

let sweep_cmd =
  let run prog quick =
    let build = builder prog quick in
    let base = Measure.prepare ~build Profile.Baseline in
    let b0 = Measure.run_zkvm Zkopt_zkvm.Config.risc0 base in
    Printf.printf "%-28s %12s %9s\n" "profile" "r0 cycles" "vs base";
    List.iter
      (fun profile ->
        let c = Measure.prepare ~build profile in
        let r0 = Measure.run_zkvm Zkopt_zkvm.Config.risc0 c in
        Printf.printf "%-28s %12d %+8.1f%%\n" (Profile.name profile)
          r0.Measure.cycles
          ((1.0 -. float_of_int r0.Measure.cycles /. float_of_int b0.Measure.cycles)
          *. 100.0))
      Profile.all_71
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Run all 71 profiles on one program")
    Term.(const run $ prog_arg $ quick_arg)

(* A run's compile-cache traffic and the pass pipelines it ran. *)
let cache_summary (s : Cache.stats) ~prepared =
  Printf.sprintf
    "compile cache: %d mem + %d disk hits, %d compiles (%.1f%% hit rate), %d \
     pass pipelines"
    s.Cache.hits s.Cache.disk_hits s.Cache.misses (Cache.hit_rate_pct s) prepared

let sweepall_cmd =
  let module H = Zkopt_harness.Harness in
  let module Tuned = Zkopt_autotune.Tuned in
  let tuned_arg =
    Arg.(value & opt (some string) None
         & info [ "tuned" ] ~docv:"FILE"
             ~doc:"Append the tuned profiles from a `zkbench tune \
                   --profile-out` JSON file to the matrix columns")
  in
  let run spec ckpt fresh budget jobs cache tuned =
    let cfg = Job.sweep_config spec in
    let profiles =
      match tuned with
      | None -> cfg.H.profiles
      | Some file -> (
        match Tuned.load file with
        | Ok entries ->
          Some
            (Option.value cfg.H.profiles ~default:Profile.all_71
            @ List.map Tuned.to_profile entries)
        | Error msg -> failwith (Printf.sprintf "--tuned %s: %s" file msg))
    in
    let cfg =
      {
        cfg with
        H.progress = true;
        profiles;
        checkpoint = ckpt;
        resume = not fresh;
        failure_budget = Option.value budget ~default:cfg.H.failure_budget;
        jobs;
        cache = Some cache;
      }
    in
    match H.run cfg with
    | o ->
      Printf.printf
        "sweep: %d points (%d resumed from checkpoint, %d measured now, %d \
         fuel retries; %d jobs)\n"
        (Hashtbl.length o.H.points) o.H.resumed o.H.executed o.H.retries jobs;
      print_endline (cache_summary o.H.cache_stats ~prepared:o.H.prepared);
      List.iter
        (fun ((c : Zkopt_harness.Error.coord), msg) ->
          Printf.printf "degraded: %s/%s: CPU model failed (%s); zkVM \
                         metrics kept\n"
            c.Zkopt_harness.Error.program c.Zkopt_harness.Error.profile msg)
        o.H.degraded;
      print_endline (H.quarantine_report o.H.quarantined);
      if not o.H.completed then
        Printf.printf
          "stopped at --limit; rerun the same command to resume from the \
           checkpoint\n"
    | exception H.Budget_exceeded errs ->
      Printf.eprintf "sweep aborted: failure budget exceeded\n%s\n"
        (H.quarantine_report errs);
      exit 1
  in
  Cmd.v
    (Cmd.info "sweepall"
       ~doc:"Fault-tolerant full-matrix sweep (all programs x all profiles) \
             with multicore execution, a content-addressed compile cache, \
             quarantine, retry, and checkpoint/resume")
    Term.(const run $ sweep_spec
          $ checkpoint_arg
              ~doc:"Stream completed cells to an append-only checkpoint \
                    file; rerunning with the same file resumes the sweep" ()
          $ fresh_arg
          $ failure_budget_arg
              ~doc:
                (Printf.sprintf
                   "Quarantined cells tolerated before aborting (default: %d)"
                   (H.default ~size:Workload.Quick).H.failure_budget)
          $ jobs_arg
              ~doc:"Worker domains executing sweep cells in parallel; \
                    results are identical at any job count"
          $ cache_arg $ tuned_arg)

let settle_cmd =
  let module S = Zkopt_settle.Settle in
  let module Ssweep = Zkopt_settle.Ssweep in
  let weight name ~doc =
    Arg.(value & opt float 1.0 & info [ name ] ~docv:"W" ~doc)
  in
  let run spec w_prove w_agg w_gas jobs ckpt fresh cache json =
    (if fresh then
       match ckpt with
       | Some p when Sys.file_exists p -> Sys.remove p
       | _ -> ());
    let stats0 = Cache.stats cache in
    let o =
      Ssweep.run
        {
          (Job.settle_config spec) with
          Ssweep.jobs;
          weights = { S.w_prove; w_agg; w_gas };
          cache = Some cache;
          checkpoint = ckpt;
        }
    in
    (* on stderr: stdout carries only the rows and their summary *)
    let stats = Cache.sub_stats (Cache.stats cache) stats0 in
    prerr_endline (cache_summary stats ~prepared:o.Ssweep.prepared);
    let reports = List.filter_map S.report_of_row o.Ssweep.rows in
    if json then
      List.iter
        (fun (program, profile, r) ->
          print_endline
            (Json.to_string (S.json_of_report ~program ~profile r)))
        reports
    else begin
      Printf.printf "%-24s %-10s %-7s %10s %4s %8s %9s %5s %8s %12s\n"
        "program" "profile" "backend" "cycles" "segs" "prove-s" "agg-ms"
        "depth" "gas" "settled";
      List.iter
        (fun (program, profile, (r : S.report)) ->
          Printf.printf
            "%-24s %-10s %-7s %10d %4d %8.2f %9.1f %5d %8d %12d\n" program
            profile r.S.backend r.S.cycles r.S.segments r.S.prove_s
            (r.S.plan.Zkopt_settle.Recursion.agg_total_s *. 1e3)
            r.S.plan.Zkopt_settle.Recursion.depth r.S.gas.Zkopt_settle.Gas.total
            r.S.settled_cost)
        reports;
      Printf.printf
        "settle: %d cells priced (%d replayed from checkpoint; %d jobs)\n"
        o.Ssweep.cells o.Ssweep.replayed jobs
    end
  in
  Cmd.v
    (Cmd.info "settle"
       ~doc:"Price the verifier: sweep a (program x profile x backend) \
             matrix through the settlement models — segment proof sizes, \
             the recursion/aggregation tree, and the EVM verification-gas \
             model — and report the settled cost per cell")
    Term.(const run $ settle_spec
          $ weight "w-prove" ~doc:"Weight on segment proving seconds"
          $ weight "w-agg" ~doc:"Weight on aggregation proving seconds"
          $ weight "w-gas" ~doc:"Weight on verification gas"
          $ jobs_arg
              ~doc:"Worker domains pricing cells in parallel; the row \
                    stream is byte-identical at any job count"
          $ checkpoint_arg
              ~doc:"Stream completed rows to an append-only checkpoint \
                    file; rerunning with the same file resumes the sweep" ()
          $ fresh_arg $ cache_arg $ json_arg ())

let fuzz_cmd =
  let module Campaign = Zkopt_fuzz.Campaign in
  let workloads_arg =
    Arg.(value & opt (list program_c) []
         & info [ "workloads" ] ~docv:"NAMES"
             ~doc:"Also fuzz these suite programs (comma-separated, quick \
                   input sizes)")
  in
  let random_arg =
    Arg.(value & opt int 0
         & info [ "random-seqs" ] ~docv:"N"
             ~doc:"Additional random pass sequences per source \
                   (deterministic in the seed)")
  in
  let no_ckpt_arg =
    Arg.(value & flag
         & info [ "no-checkpoint" ] ~doc:"Run without a checkpoint file")
  in
  let minimize_arg =
    Arg.(value & flag
         & info [ "minimize" ]
             ~doc:"Shrink every finding with the delta-debugging minimizer")
  in
  let corpus_arg =
    Arg.(value & opt (some string) None
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:"Persist (minimized) findings as replayable corpus \
                   entries under DIR")
  in
  let verbose_arg =
    Arg.(value & flag
         & info [ "verbose" ] ~doc:"Log every case, not just findings")
  in
  let run spec workloads random_seqs jobs ckpt no_ckpt fresh budget minimize
      corpus verbose =
    let cfg = Job.fuzz_config spec in
    let cfg =
      {
        cfg with
        Campaign.sources =
          cfg.Campaign.sources @ List.map (fun w -> Case.Workload w) workloads;
        random_seqs;
        jobs;
        checkpoint = (if no_ckpt then None else ckpt);
        resume = not fresh;
        failure_budget = budget;
        minimize;
        corpus;
        log =
          (fun line ->
            if verbose || not (String.length line >= 2 && line.[0] = 'o') then
              Printf.printf "%s\n%!" line);
      }
    in
    let s = Campaign.run cfg in
    Printf.printf "%s (%d jobs)\n" (Campaign.describe s) jobs;
    List.iter
      (fun (f : Campaign.finding) ->
        Printf.printf "  %s / %s -> %s: %s%s\n"
          (Case.source_name f.Campaign.case.Case.source)
          f.Campaign.case.Case.pipeline.Case.spec
          (Case.divergence_key f.Campaign.divergence)
          (Case.divergence_detail f.Campaign.divergence)
          (match f.Campaign.corpus_path with
          | Some p -> "  [" ^ p ^ "]"
          | None -> ""))
      s.Campaign.findings;
    if s.Campaign.findings <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing campaign: random programs and suite \
             workloads run across backends and pass pipelines; divergences \
             are classified, minimized, and persisted to a replayable \
             corpus")
    Term.(const run $ fuzz_spec $ workloads_arg $ random_arg
          $ jobs_arg ~doc:"Worker domains running cases in parallel"
          $ checkpoint_arg ~default:"fuzz.ckpt"
              ~doc:"Append-only campaign checkpoint; rerunning with the \
                    same file resumes where the previous run stopped" ()
          $ no_ckpt_arg $ fresh_arg
          $ failure_budget_arg
              ~doc:"Stop scheduling new cases after N divergences"
          $ minimize_arg $ corpus_arg $ verbose_arg)

let tune_cmd =
  let module A = Zkopt_autotune.Autotune in
  let module Tuned = Zkopt_autotune.Tuned in
  let profile_out_arg =
    Arg.(value & opt (some string) None
         & info [ "profile-out" ] ~docv:"FILE"
             ~doc:"Write the winning sequence as a named-profile JSON file \
                   consumable by `zkbench sweepall --tuned`")
  in
  let objective_arg =
    Arg.(value
         & opt
             (enum
                [ ("cycles", (false, "cycles"));
                  ("settled", (true, "settled micro-units")) ])
             (false, "cycles")
         & info [ "objective" ] ~docv:"NAME"
             ~doc:"Fitness the search minimizes: \"cycles\" (the backend's \
                   cycle count) or \"settled\" (end-to-end settlement \
                   micro-cost: prover + aggregation + verification gas)")
  in
  let run (spec : Job.autotune) jobs ckpt fresh profile_out (settled, unit_name) =
    let cfg, target =
      Job.autotune_config ~cache:(Cache.create ()) ~settled spec
    in
    let cfg =
      {
        cfg with
        A.jobs;
        checkpoint = ckpt;
        resume = not fresh;
      }
    in
    let o = A.search cfg ~targets:[ target ] in
    match o.A.result with
    | None ->
      Printf.eprintf "tune: stopped before completing a generation\n";
      exit 1
    | Some ga ->
      let best = ga.A.best in
      Printf.printf "tuned %s@%s: %d %s after %d evaluations (%d \
                     generations%s)\n"
        spec.program spec.vm best.A.fitness unit_name ga.A.evaluations
        (List.length ga.A.history)
        (if o.A.resumed > 0 then
           Printf.sprintf ", %d resumed from checkpoint" o.A.resumed
         else "");
      Printf.printf "  %s\n" (String.concat " -> " best.A.genome);
      let cs = o.A.cache_stats in
      Printf.printf
        "engine: %d measured, %d deduped, %d pruned, %d failed; prefix \
         cache %d hits / %d compiles (%.1f%% hit rate; %d jobs)\n"
        cs.A.measured cs.A.dedup_hits cs.A.pruned cs.A.failed
        cs.A.prefix.Cache.hits cs.A.prefix.Cache.misses
        (Cache.hit_rate_pct cs.A.prefix)
        jobs;
      (match profile_out with
      | None -> ()
      | Some path -> (
        let e =
          Tuned.entry ~program:spec.program ~vm:spec.vm
            ~cycles:best.A.fitness best.A.genome
        in
        match Tuned.save path [ e ] with
        | Ok () -> Printf.printf "wrote %s (profile %S)\n" path e.Tuned.name
        | Error msg -> failwith ("--profile-out: " ^ msg)))
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:"Full-budget parallel pass-sequence search: generation-parallel \
             evaluation over a domain pool, prefix-cached compilation, \
             dedup/pruning, checkpoint/resume, and named-profile output \
             for the sweep matrix")
    Term.(const run $ autotune_spec prog_arg
          $ jobs_arg
              ~doc:"Worker domains evaluating a generation in parallel; \
                    results are identical at any job count"
          $ checkpoint_arg
              ~doc:"Append per-generation rows to FILE; rerunning with the \
                    same file resumes the search" ()
          $ fresh_arg $ profile_out_arg $ objective_arg)

let backends_cmd =
  let run () =
    List.iter
      (fun (b : Backend.t) ->
        Printf.printf "%-8s %-10s schema %-12s %s\n" b.Backend.name
          (if b.Backend.zk_native then "zk-native" else "rv32")
          b.Backend.schema b.Backend.doc)
      (Registry.all ())
  in
  Cmd.v
    (Cmd.info "backends" ~doc:"List the registered zkVM backends")
    Term.(const run $ const ())

let asm_cmd =
  let run prog quick profile =
    let m = builder prog quick () in
    Zkopt_runtime.Runtime.link m;
    Profile.apply profile m;
    ignore (Zkopt_passes.Pass.run_one "globaldce" m);
    List.iter
      (fun f ->
        let unit_, _ = Zkopt_riscv.Codegen.lower_func m f in
        print_string (Zkopt_riscv.Asm.to_string unit_))
      m.Zkopt_ir.Modul.funcs
  in
  Cmd.v (Cmd.info "asm" ~doc:"Dump the generated RV32 assembly")
    Term.(const run $ prog_arg $ quick_arg $ profile_sel_arg)

(* ---- the sweep service ----------------------------------------------- *)

module Serve_proto = Zkopt_serve.Proto
module Serve_client = Zkopt_serve.Client

let dir_arg =
  Arg.(value & opt string "_zkserve"
       & info [ "dir" ] ~docv:"DIR"
           ~doc:"Service state directory (job registry, checkpoints, \
                 default socket)")

let sock_arg =
  Arg.(value & opt (some string) None
       & info [ "sock" ] ~docv:"PATH"
           ~doc:"Unix-domain socket path (default: DIR/zkbench.sock)")

let sock_of ~dir ~sock =
  match sock with Some p -> p | None -> Filename.concat dir "zkbench.sock"

let serve_cmd =
  let run dir sock jobs =
    Zkopt_serve.Daemon.run ~jobs ?sock ~log:print_endline ~dir ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent sweep service: a priority job queue over \
             one warm domain pool and compile cache, streaming rows to \
             clients over a unix socket; SIGTERM drains and a restart \
             resumes every unfinished job from its checkpoint")
    Term.(const run $ dir_arg $ sock_arg
          $ jobs_arg ~doc:"Worker domains shared by every job")

let submit_cmd =
  let priority_arg =
    Arg.(value & opt int 10
         & info [ "priority" ] ~docv:"N"
             ~doc:"Queue priority; lower runs sooner (FIFO within a \
                   priority)")
  in
  let budget_arg =
    Arg.(value & opt (some int) None
         & info [ "budget" ] ~docv:"N"
             ~doc:"Per-client failure budget shared by this connection's \
                   jobs")
  in
  let no_watch_arg =
    Arg.(value & flag
         & info [ "no-watch" ]
             ~doc:"Fire and forget: do not stream rows back (the job also \
                   survives this client disconnecting)")
  in
  let submit dir sock priority budget no_watch spec =
    let sock = sock_of ~dir ~sock in
    let result =
      Serve_client.with_connection sock (fun c ->
          Serve_client.submit_and_watch ~priority ?budget
            ~watch:(not no_watch)
            ~on_event:(function
              | Serve_proto.Row { data; _ } -> print_endline data
              | _ -> ())
            c spec)
    in
    match result with
    | Ok (id, `Done summary) ->
      if no_watch then Printf.printf "submitted %s (not watching)\n" id
      else Printf.printf "%s done: %s\n" id (Json.to_string summary)
    | Ok (id, `Failed msg) ->
      Printf.eprintf "%s failed: %s\n" id msg;
      exit 1
    | Error msg ->
      Printf.eprintf "submit: %s\n" msg;
      exit 1
  in
  let kind name ~doc spec =
    Cmd.v (Cmd.info name ~doc)
      Term.(const submit $ dir_arg $ sock_arg $ priority_arg $ budget_arg
            $ no_watch_arg $ spec)
  in
  Cmd.group
    (Cmd.info "submit"
       ~doc:"Submit a job to a running `zkbench serve` daemon and stream \
             its rows back; each kind takes the flags and defaults of its \
             one-shot command")
    [
      kind "sweep" ~doc:"A slice of the sweep matrix (as `zkbench sweepall`)"
        Term.(const (fun s -> Job.Sweep s) $ sweep_spec);
      kind "profile" ~doc:"One (program, profile, backend) cell"
        Term.(const (fun c -> Job.Profile_cell c) $ profile_cell_spec);
      kind "autotune" ~doc:"A pass-sequence search (as `zkbench tune`)"
        Term.(const (fun a -> Job.Autotune a) $ autotune_spec program_opt);
      kind "fuzz" ~doc:"A differential fuzzing campaign (as `zkbench fuzz`)"
        Term.(const (fun f -> Job.Fuzz f) $ fuzz_spec);
      kind "settle" ~doc:"A settlement-cost sweep (as `zkbench settle`)"
        Term.(const (fun s -> Job.Settle s) $ settle_spec);
    ]

let status_cmd =
  let run dir sock json =
    let sock = sock_of ~dir ~sock in
    let result =
      Serve_client.with_connection sock (fun c ->
          match Serve_client.send c Serve_proto.Status with
          | Error e -> Error e
          | Ok () -> (
            match Serve_client.recv c with
            | Ok (Serve_proto.Status_report s) -> Ok s
            | Ok _ -> Error "unexpected reply to status"
            | Error `Eof -> Error "daemon closed the connection"
            | Error (`Bad msg) -> Error msg))
    in
    match result with
    | Error msg ->
      Printf.eprintf "status: %s\n" msg;
      exit 1
    | Ok s ->
      if json then print_endline (Json.to_string s)
      else begin
        (match Json.member "jobs" s with
        | Some (Json.Arr jobs) ->
          Printf.printf "%-8s %-9s %-10s %5s %5s %s\n" "id" "kind" "state"
            "prio" "rows" "client";
          List.iter
            (fun j ->
              let str k = Option.value ~default:"?" (Json.str_member k j) in
              let int k = Option.value ~default:0 (Json.int_member k j) in
              Printf.printf "%-8s %-9s %-10s %5d %5d %s\n" (str "id")
                (str "kind") (str "state") (int "priority") (int "rows")
                (str "client"))
            jobs
        | _ -> ());
        match Json.member "cache" s with
        | Some cache ->
          let int k = Option.value ~default:0 (Json.int_member k cache) in
          Printf.printf
            "cache: %d mem + %d disk hits, %d compiles, %d evictions, %d \
             resident\n"
            (int "hits") (int "disk_hits") (int "misses") (int "evictions")
            (int "resident")
        | None -> ()
      end
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:"Show a running daemon's jobs and shared compile-cache \
             hit/miss/evict counters")
    Term.(const run $ dir_arg $ sock_arg
          $ json_arg ~doc:"Print the raw status JSON" ())

let shutdown_cmd =
  let run dir sock =
    let sock = sock_of ~dir ~sock in
    let result =
      Serve_client.with_connection sock (fun c ->
          match Serve_client.send c Serve_proto.Shutdown with
          | Error e -> Error e
          | Ok () -> (
            match Serve_client.recv c with
            | Ok (Serve_proto.Ack _) | Error `Eof -> Ok ()
            | Ok _ -> Ok ()
            | Error (`Bad msg) -> Error msg))
    in
    match result with
    | Ok () -> print_endline "daemon draining (unfinished jobs resume on restart)"
    | Error msg ->
      Printf.eprintf "shutdown: %s\n" msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:"Ask a running daemon to drain gracefully: the running job \
             checkpoints at its next cell boundary and everything \
             unfinished resumes when the daemon restarts")
    Term.(const run $ dir_arg $ sock_arg)

let () =
  let info =
    Cmd.info "zkbench" ~version:"1.0"
      ~doc:"Measure compiler-optimization impact on simulated zkVMs"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; passes_cmd; backends_cmd; run_cmd; profile_cmd;
            sweep_cmd; sweepall_cmd; settle_cmd; fuzz_cmd; tune_cmd;
            asm_cmd; serve_cmd; submit_cmd; status_cmd; shutdown_cmd ]))
