(** Fault-tolerant sweep harness tests: error-taxonomy classification,
    retry with escalating fuel, checkpoint codec + kill/resume
    determinism, per-cell fault isolation, miscompile quarantine, the
    accounting oracles, and the failure budget. *)

open Zkopt_ir
open Zkopt_core
module H = Zkopt_harness.Harness
module Cell = Zkopt_harness.Cell
module Error = Zkopt_harness.Error
module Retry = Zkopt_harness.Retry
module Checkpoint = Zkopt_harness.Checkpoint
module Faultplan = Zkopt_harness.Faultplan
module Backend = Zkopt_backend.Backend
module Cache = Zkopt_exec.Cache
module Fingerprint = Zkopt_exec.Fingerprint
module B = Builder

let coord = { Error.program = "p"; profile = "prof"; vm = "-" }

(* A small sweep subset: 2 programs x 4 profiles = 8 cells, quick sizes. *)
let subset_programs = [ "fibonacci"; "factorial" ]

let subset_profiles =
  [
    Profile.Baseline;
    Profile.Single_pass "licm";
    Profile.Single_pass "mem2reg";
    Profile.Level Zkopt_passes.Catalog.O1;
  ]

let subset_cfg () =
  {
    (H.default ~size:Zkopt_workloads.Workload.Quick) with
    H.programs = Some subset_programs;
    profiles = Some subset_profiles;
  }

(** The fingerprint the harness keys a quick-size cell's artifact on. *)
let cell_fp program profile =
  let w = Zkopt_workloads.Workload.find program in
  let build () =
    w.Zkopt_workloads.Workload.build Zkopt_workloads.Workload.Quick
  in
  Fingerprint.of_modul (Measure.prepare_ir ~build profile)

(** Canonical byte representation of an outcome's point set: one encoded
    line per point, sorted.  Two runs are "the same" iff these match. *)
let canonical (points : (string * string, Cell.point) Hashtbl.t) : string =
  Hashtbl.fold (fun _ p acc -> Checkpoint.encode_point p :: acc) points []
  |> List.sort compare |> String.concat "\n"

(* ---- error taxonomy ------------------------------------------------- *)

let test_classification () =
  let kind_of e =
    match Cell.protect ~coord (fun () -> raise e) with
    | Error err -> Error.kind_name err.Error.kind
    | Ok _ -> assert false
  in
  Alcotest.(check string) "emulator fuel" "out-of-fuel"
    (kind_of (Zkopt_riscv.Emulator.Out_of_fuel 42));
  Alcotest.(check string) "interp fuel" "out-of-fuel"
    (kind_of Interp.Out_of_fuel);
  Alcotest.(check string) "trap" "emulator-trap"
    (kind_of (Zkopt_riscv.Emulator.Trap "pc out of range"));
  Alcotest.(check string) "decode" "decode-error"
    (kind_of (Zkopt_riscv.Isa.Decode_error 0xdeadl));
  Alcotest.(check string) "asm" "asm-error"
    (kind_of (Zkopt_riscv.Asm.Asm_error "undefined symbol"));
  Alcotest.(check string) "isel" "isel-unsupported"
    (kind_of (Zkopt_riscv.Isel.Unsupported "i64 mulhu"));
  Alcotest.(check string) "verify" "ill-formed-ir"
    (kind_of (Verify.Ill_formed "use before def"));
  Alcotest.(check string) "divergence" "miscompile"
    (kind_of (Error.Divergence { expected = 1L; got = 2L; oracle = "test" }));
  Alcotest.(check string) "accounting" "accounting-violation"
    (kind_of (Error.Accounting "paging mismatch"));
  Alcotest.(check string) "other" "uncaught" (kind_of (Failure "boom"));
  (* retry policy keys off the taxonomy, not strings *)
  Alcotest.(check bool) "fuel retryable" true
    (Error.retryable (Error.classify (Zkopt_riscv.Emulator.Out_of_fuel 1)));
  Alcotest.(check bool) "trap not retryable" false
    (Error.retryable (Error.classify (Zkopt_riscv.Emulator.Trap "x")));
  (* the In_vm wrapper refines the vm coordinate and classifies through *)
  match
    Cell.protect ~coord (fun () ->
        raise (Error.In_vm ("sp1", Zkopt_riscv.Emulator.Trap "t")))
  with
  | Error err ->
    Alcotest.(check string) "vm refined" "sp1" err.Error.coord.Error.vm;
    Alcotest.(check string) "wrapped kind" "emulator-trap"
      (Error.kind_name err.Error.kind)
  | Ok _ -> assert false

(* ---- retry with escalating fuel ------------------------------------- *)

let test_retry_escalation () =
  let w = Zkopt_workloads.Workload.find "factorial" in
  let build () = w.Zkopt_workloads.Workload.build Zkopt_workloads.Workload.Quick in
  let c = Measure.prepare ~build Profile.Baseline in
  let reference = Measure.run_zkvm Zkopt_zkvm.Config.sp1 c in
  (* an initial budget far too small for the workload must escalate *)
  let policy = { Retry.max_attempts = 24; initial_fuel = 100; growth = 2 } in
  let r, attempts =
    Retry.run policy (fun ~fuel -> Measure.run_zkvm ~fuel Zkopt_zkvm.Config.sp1 c)
  in
  Alcotest.(check bool) "needed escalation" true (attempts > 1);
  Alcotest.(check int) "same cycles as unbounded run" reference.Measure.cycles
    r.Measure.cycles;
  Alcotest.(check int64) "same checksum" reference.Measure.exit_value
    r.Measure.exit_value;
  (* deterministic faults are not retried *)
  let calls = ref 0 in
  (try
     ignore
       (Retry.run policy (fun ~fuel:_ ->
            incr calls;
            raise (Zkopt_riscv.Emulator.Trap "genuine fault")))
   with Zkopt_riscv.Emulator.Trap _ -> ());
  Alcotest.(check int) "no retry on trap" 1 !calls;
  (* a budget that can never stretch far enough gives up after max_attempts *)
  let calls = ref 0 in
  (try
     ignore
       (Retry.run
          { Retry.max_attempts = 3; initial_fuel = 1; growth = 2 }
          (fun ~fuel -> incr calls; raise (Zkopt_riscv.Emulator.Out_of_fuel fuel)))
   with Zkopt_riscv.Emulator.Out_of_fuel _ -> ());
  Alcotest.(check int) "bounded attempts" 3 !calls

let test_sweep_retries_fuel () =
  (* the harness retries a fuel-starved cell and still produces the same
     point as a generously fueled run *)
  let cfg =
    {
      (subset_cfg ()) with
      H.programs = Some [ "factorial" ];
      profiles = Some [ Profile.Baseline ];
      retry = { Retry.max_attempts = 24; initial_fuel = 1000; growth = 2 };
    }
  in
  let o = H.run cfg in
  Alcotest.(check int) "one point" 1 (Hashtbl.length o.H.points);
  Alcotest.(check bool) "fuel was escalated" true (o.H.retries > 0);
  Alcotest.(check (list string)) "nothing quarantined" []
    (List.map Error.to_string o.H.quarantined);
  let unconstrained = H.run { cfg with H.retry = Retry.default } in
  Alcotest.(check string) "same point either way"
    (canonical unconstrained.H.points)
    (canonical o.H.points);
  (* over a cache a default-fuel sweep has warmed, the kept complete
     runs must not answer the starved attempts *)
  let cache = Some (Cache.create ()) in
  ignore (H.run { cfg with H.retry = Retry.default; cache });
  let warm = H.run { cfg with H.cache = cache } in
  Alcotest.(check bool) "fuel escalated over a warm cache" true
    (warm.H.retries > 0);
  Alcotest.(check string) "same point over a warm cache"
    (canonical unconstrained.H.points)
    (canonical warm.H.points)

(* ---- checkpoint codec + kill/resume --------------------------------- *)

let test_checkpoint_codec () =
  let o = H.run (subset_cfg ()) in
  Alcotest.(check int) "8 cells" 8 (Hashtbl.length o.H.points);
  Hashtbl.iter
    (fun _ p ->
      match Checkpoint.decode_point (Checkpoint.encode_point p) with
      | None -> Alcotest.fail "decode failed"
      | Some q ->
        Alcotest.(check string) "exact round trip"
          (Checkpoint.encode_point p) (Checkpoint.encode_point q);
        Alcotest.(check bool) "structural equality" true (p = q))
    o.H.points

let test_kill_resume_determinism () =
  let path = Filename.temp_file "zkopt_ckpt" ".txt" in
  Sys.remove path;
  let uninterrupted = H.run (subset_cfg ()) in
  (* phase 1: measure only 3 of the 8 cells, then "die" *)
  let cfg = { (subset_cfg ()) with H.checkpoint = Some path } in
  let partial = H.run { cfg with H.limit = Some 3 } in
  Alcotest.(check bool) "stopped early" false partial.H.completed;
  Alcotest.(check int) "3 cells done" 3 (Hashtbl.length partial.H.points);
  (* simulate a kill mid-write: a truncated trailing line must be ignored *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "factorial\tmisc\ttruncated-by-kill";
  close_out oc;
  (* phase 2: resume — skips the 3 done cells, finishes the rest *)
  let resumed = H.run cfg in
  Alcotest.(check bool) "completed" true resumed.H.completed;
  Alcotest.(check int) "resumed cells" 3 resumed.H.resumed;
  Alcotest.(check int) "newly executed" 5 resumed.H.executed;
  Alcotest.(check string) "byte-identical to the uninterrupted run"
    (canonical uninterrupted.H.points)
    (canonical resumed.H.points);
  Sys.remove path

(* A kill inside the last row's final field, the CPU exit value, leaves
   a prefix that still decodes, to a wrong value.  Resume must drop the
   unterminated line and measure that cell again. *)
let test_torn_exit_value_resume () =
  let path = Filename.temp_file "zkopt_ckpt_torn" ".txt" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let uninterrupted = H.run (subset_cfg ()) in
  let cfg = { (subset_cfg ()) with H.checkpoint = Some path } in
  ignore (H.run { cfg with H.limit = Some 3 });
  let log = In_channel.with_open_bin path In_channel.input_all in
  let n = String.length log in
  let row_start = String.rindex_from log (n - 2) '\n' + 1 in
  let last_row = String.sub log row_start (n - 1 - row_start) in
  let exit_at = String.rindex last_row '\t' + 1 in
  Alcotest.(check bool) "last row ends in a multi-digit CPU exit value" true
    (Astring_contains.contains last_row "\tcpu\t"
    && String.length last_row - exit_at >= 2);
  (* keep the first hex digit of the exit value, drop the rest *)
  let cut = row_start + exit_at + 1 in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.sub log 0 cut));
  Alcotest.(check bool) "the torn row decodes on its own" true
    (Checkpoint.decode_point (String.sub log row_start (cut - row_start))
    <> None);
  let resumed = H.run cfg in
  Alcotest.(check string) "identical to the uninterrupted run"
    (canonical uninterrupted.H.points)
    (canonical resumed.H.points);
  Alcotest.(check int) "the torn row is not resumed" 2 resumed.H.resumed

(* ---- fault injection, isolation, quarantine ------------------------- *)

let test_fault_isolation () =
  (* factorial's licm module is its baseline's, so the faulted
     factorial/licm/sp1 call lands on an artifact whose clean sp1 run the
     baseline cell has already kept: the fault must still execute *)
  Alcotest.(check string) "factorial/licm repeats the baseline's artifact"
    (cell_fp "factorial" Profile.Baseline)
    (cell_fp "factorial" (Profile.Single_pass "licm"));
  let clean = H.run (subset_cfg ()) in
  let plan =
    Faultplan.inject
      [
        ( { Faultplan.program = "factorial"; profile = "licm"; vm = "sp1" },
          Faultplan.Truncated_final_segment );
        ( { Faultplan.program = "fibonacci"; profile = "baseline"; vm = "risc0" },
          Faultplan.Corrupt_exit_value );
      ]
  in
  let faulty = H.run { (subset_cfg ()) with H.faultplan = plan } in
  (* the sweep survives and quarantines exactly the injected cells *)
  let cells =
    List.map
      (fun (e : Error.t) -> (e.Error.coord.Error.program, e.Error.coord.Error.profile))
      faulty.H.quarantined
    |> List.sort compare
  in
  Alcotest.(check (list (pair string string)))
    "quarantine names exactly the injected cells"
    [ ("factorial", "licm"); ("fibonacci", "baseline") ]
    cells;
  Alcotest.(check int) "other cells all survive" 6 (Hashtbl.length faulty.H.points);
  (* ...and their metrics are unchanged versus the clean run *)
  Hashtbl.iter
    (fun key p ->
      match Hashtbl.find_opt clean.H.points key with
      | None -> Alcotest.fail "unexpected extra point"
      | Some q ->
        Alcotest.(check string) "metrics unchanged"
          (Checkpoint.encode_point q) (Checkpoint.encode_point p))
    faulty.H.points

let test_miscompile_quarantined_not_fatal () =
  (* the old sweep died with [failwith "MISCOMPILE: ..."]; now a
     checksum-divergent cell is quarantined and the sweep finishes *)
  let plan =
    Faultplan.inject
      [
        ( { Faultplan.program = "factorial"; profile = "licm"; vm = "risc0" },
          Faultplan.Corrupt_exit_value );
      ]
  in
  let o = H.run { (subset_cfg ()) with H.faultplan = plan } in
  Alcotest.(check bool) "sweep completed" true o.H.completed;
  Alcotest.(check int) "one quarantined cell" 1 (List.length o.H.quarantined);
  (match o.H.quarantined with
  | [ { Error.kind = Error.Miscompile { oracle; _ }; _ } ] ->
    Alcotest.(check bool) "caught by a differential oracle" true
      (oracle = "risc0-vs-sp1" || oracle = "baseline-differential")
  | _ -> Alcotest.fail "expected a Miscompile classification");
  Alcotest.(check int) "remaining cells intact" 7 (Hashtbl.length o.H.points);
  Alcotest.(check bool) "report names the cell" true
    (Astring_contains.contains
       (H.quarantine_report o.H.quarantined)
       "factorial/licm")

(* ---- accounting oracles --------------------------------------------- *)

let touch_pages_program pages =
  let m = Modul.create () in
  ignore (B.global_zero m "arr" (1024 * pages));
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         B.for_ b ~from:(B.imm 0) ~bound:(B.imm pages) (fun i ->
             let addr = B.addr b (Value.Glob "arr") ~index:i ~scale:1024 in
             B.store b ~addr (B.imm 1));
         B.ret b (Some (B.imm 0))));
  m

let test_accounting_oracle () =
  let build () = touch_pages_program 16 in
  let c = Measure.prepare ~build Profile.Baseline in
  let cfg = Zkopt_zkvm.Config.risc0 in
  let healthy = Measure.run cfg c in
  Alcotest.(check bool) "healthy run reconciles" true
    (Cell.check_accounting cfg healthy = Ok ());
  let dropped =
    Measure.run ~fault:Zkopt_zkvm.Machine.Dropped_page_out cfg c
  in
  Alcotest.(check bool) "dropped page-out caught" true
    (Result.is_error (Cell.check_accounting cfg dropped));
  let truncated =
    Measure.run ~fault:Zkopt_zkvm.Machine.Truncated_final_segment
      cfg c
  in
  Alcotest.(check bool) "truncated final segment caught" true
    (Result.is_error (Cell.check_accounting cfg truncated))

(* ---- failure budget -------------------------------------------------- *)

let test_failure_budget () =
  let plan =
    Faultplan.inject
      [
        ( { Faultplan.program = "fibonacci"; profile = "baseline"; vm = "risc0" },
          Faultplan.Corrupt_exit_value );
        ( { Faultplan.program = "factorial"; profile = "baseline"; vm = "risc0" },
          Faultplan.Corrupt_exit_value );
      ]
  in
  match
    H.run { (subset_cfg ()) with H.faultplan = plan; failure_budget = 1 }
  with
  | _ -> Alcotest.fail "expected Budget_exceeded"
  | exception H.Budget_exceeded errs ->
    Alcotest.(check int) "aborted at the second failure" 2 (List.length errs)

(* ---- deterministic seeded fault-site selector ----------------------- *)

let test_faultplan_selector () =
  let axes =
    Faultplan.random ~seed:11 ~count:4 ~programs:subset_programs
      ~profiles:[ "baseline"; "licm" ] ~vms:[ "risc0"; "sp1" ]
      ~kinds:[ Faultplan.Dropped_page_out; Faultplan.Corrupt_exit_value ]
  in
  let again =
    Faultplan.random ~seed:11 ~count:4 ~programs:subset_programs
      ~profiles:[ "baseline"; "licm" ] ~vms:[ "risc0"; "sp1" ]
      ~kinds:[ Faultplan.Dropped_page_out; Faultplan.Corrupt_exit_value ]
  in
  Alcotest.(check int) "4 sites" 4 (List.length (Faultplan.sites axes));
  Alcotest.(check bool) "same seed, same plan" true
    (Faultplan.sites axes = Faultplan.sites again);
  let sites = List.map fst (Faultplan.sites axes) in
  Alcotest.(check int) "sites distinct"
    (List.length sites)
    (List.length (List.sort_uniq compare sites))

(* ---- multicore: differential oracle, fault partition, resume -------- *)

(* A seeded sample of [n] profiles (baseline always included, for the
   baseline-differential oracle). *)
let seeded_profile_sample ~seed n =
  let rng = Random.State.make [| seed |] in
  let arr =
    Array.of_list (List.filter (fun p -> p <> Profile.Baseline) Profile.all_71)
  in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Profile.Baseline :: Array.to_list (Array.sub arr 0 (n - 1))

let test_parallel_matches_sequential () =
  (* the differential oracle for the multicore engine: 2 programs x 21
     seeded profiles = 42 cells; a 4-domain run must produce
     cell-for-cell identical metrics to the sequential run *)
  let profiles = seeded_profile_sample ~seed:2026 21 in
  let ckpt jobs =
    Filename.temp_file (Printf.sprintf "zkopt_ckpt_j%d" jobs) ".txt"
  in
  let seq_path = ckpt 1 and par_path = ckpt 4 in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove [ seq_path; par_path ])
  @@ fun () ->
  let cfg jobs path =
    {
      (H.default ~size:Zkopt_workloads.Workload.Quick) with
      H.programs = Some subset_programs;
      profiles = Some profiles;
      jobs;
      checkpoint = Some path;
      resume = false;
    }
  in
  let seq = H.run (cfg 1 seq_path) in
  let par = H.run (cfg 4 par_path) in
  Alcotest.(check int) "42 cells" 42 (Hashtbl.length seq.H.points);
  Alcotest.(check (list string)) "nothing quarantined" []
    (List.map Error.to_string par.H.quarantined);
  Alcotest.(check string) "cell-for-cell identical metrics"
    (canonical seq.H.points) (canonical par.H.points);
  let read path = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string) "checkpoint byte-identical, unsorted" (read seq_path)
    (read par_path);
  (* the content-addressed cache dedupes profiles that leave a program
     untouched, and never changes results while doing so *)
  Alcotest.(check bool) "cache deduped some compiles" true
    (par.H.cache_stats.Zkopt_exec.Cache.hits > 0)

let test_parallel_faults_exactly_once () =
  (* under random worker counts and injected faults, every cell lands in
     exactly one of points / quarantine — none lost, none duplicated *)
  let rng = Random.State.make [| 31337 |] in
  let names = List.map Profile.name subset_profiles in
  for trial = 1 to 3 do
    let jobs = 1 + Random.State.int rng 8 in
    let plan =
      Faultplan.random ~seed:(100 + trial) ~count:3 ~programs:subset_programs
        ~profiles:names ~vms:[ "risc0"; "sp1" ]
        ~kinds:[ Faultplan.Dropped_page_out; Faultplan.Corrupt_exit_value ]
    in
    let o = H.run { (subset_cfg ()) with H.faultplan = plan; jobs } in
    let measured = Hashtbl.fold (fun k _ acc -> k :: acc) o.H.points []
    and failed =
      List.map
        (fun (e : Error.t) ->
          (e.Error.coord.Error.program, e.Error.coord.Error.profile))
        o.H.quarantined
    in
    let expected =
      List.concat_map
        (fun p -> List.map (fun prof -> (p, Profile.name prof)) subset_profiles)
        subset_programs
      |> List.sort compare
    in
    Alcotest.(check (list (pair string string)))
      (Printf.sprintf "trial %d (jobs=%d): exact partition" trial jobs)
      expected
      (List.sort compare (measured @ failed))
  done

let test_parallel_kill_resume () =
  (* kill a 3-domain sweep mid-run; the resumed 3-domain run replays to
     the same completed-cell set as an uninterrupted sequential run *)
  let path = Filename.temp_file "zkopt_ckpt_par" ".txt" in
  Sys.remove path;
  let uninterrupted = H.run (subset_cfg ()) in
  let cfg = { (subset_cfg ()) with H.checkpoint = Some path; jobs = 3 } in
  let partial = H.run { cfg with H.limit = Some 3 } in
  Alcotest.(check bool) "stopped early" false partial.H.completed;
  Alcotest.(check int) "3 cells done" 3 (Hashtbl.length partial.H.points);
  let resumed = H.run cfg in
  Alcotest.(check bool) "completed" true resumed.H.completed;
  Alcotest.(check int) "resumed cells" 3 resumed.H.resumed;
  Alcotest.(check int) "newly executed" 5 resumed.H.executed;
  Alcotest.(check string) "identical to the uninterrupted sequential run"
    (canonical uninterrupted.H.points)
    (canonical resumed.H.points);
  Sys.remove path

(* ---- guest executions per cell -------------------------------------- *)

(* [b] with every execution of its artifacts counted, beneath any memo
   the compile cache adds around them: zkVM runs in [zk], CPU-model
   runs in [cpu] *)
let counting ~zk ~cpu (b : Backend.t) : Backend.t =
  let wrap (c : Backend.compiled) =
    let measure ~vm ?fault ?fuel ?sink () =
      incr zk;
      c.Backend.measure ~vm ?fault ?fuel ?sink ()
    in
    let measure_cpu =
      match c.Backend.measure_cpu with
      | None -> None
      | Some run ->
        Some
          (fun ?fuel ?sink () ->
            incr cpu;
            run ?fuel ?sink ())
    in
    { c with Backend.measure; measure_cpu }
  in
  {
    b with
    Backend.compile = (fun m -> wrap (b.Backend.compile m));
    decode = (fun m s -> Option.map wrap (b.Backend.decode m s));
  }

let test_each_artifact_runs_once () =
  let programs = [ "fibonacci"; "factorial"; "loop-sum" ] in
  let profiles =
    Profile.Baseline
    :: List.map
         (fun p -> Profile.Single_pass p)
         [ "licm"; "mem2reg"; "gvn"; "inline"; "simplifycfg"; "adce" ]
    @ [ Profile.Level Zkopt_passes.Catalog.O1 ]
  in
  (* the distinct artifacts among all cells, and among the CPU cells *)
  let distinct cells =
    List.map (fun (p, prof) -> cell_fp p prof) cells
    |> List.sort_uniq compare |> List.length
  in
  let cells =
    List.concat_map (fun prog -> List.map (fun p -> (prog, p)) profiles) programs
  in
  let cpu_cells =
    List.filter
      (fun (_, p) ->
        match p with
        | Profile.Baseline | Profile.Single_pass _ -> true
        | _ -> false)
      cells
  in
  let zk = ref 0 and cpu = ref 0 in
  let vms = [ "risc0"; "sp1" ] in
  let cfg =
    {
      (H.default ~size:Zkopt_workloads.Workload.Quick) with
      H.programs = Some programs;
      profiles = Some profiles;
      cache = Some (Cache.create ());
      backends =
        Some
          (List.map
             (fun vm -> counting ~zk ~cpu (Zkopt_backend.Registry.find vm))
             vms);
    }
  in
  let first = H.run cfg in
  Alcotest.(check int) "every cell measured" (List.length cells)
    (Hashtbl.length first.H.points);
  Alcotest.(check bool) "some cells repeat an earlier cell's artifact" true
    (distinct cells < List.length cells);
  Alcotest.(check int) "guest runs = distinct artifacts x VMs"
    (distinct cells * List.length vms)
    !zk;
  Alcotest.(check int) "CPU-model runs = distinct artifacts among CPU cells"
    (distinct cpu_cells) !cpu;
  zk := 0;
  cpu := 0;
  let second = H.run cfg in
  Alcotest.(check int) "a second sweep on the same cache runs no guest" 0
    (!zk + !cpu);
  Alcotest.(check string) "and reports the same points"
    (canonical first.H.points) (canonical second.H.points)

let tests =
  [
    Alcotest.test_case "error taxonomy classification" `Quick test_classification;
    Alcotest.test_case "retry escalates fuel" `Quick test_retry_escalation;
    Alcotest.test_case "sweep-level fuel retry" `Quick test_sweep_retries_fuel;
    Alcotest.test_case "checkpoint codec round trip" `Quick test_checkpoint_codec;
    Alcotest.test_case "kill/resume determinism" `Quick
      test_kill_resume_determinism;
    Alcotest.test_case "torn exit value is measured again" `Quick
      test_torn_exit_value_resume;
    Alcotest.test_case "fault isolation across cells" `Quick test_fault_isolation;
    Alcotest.test_case "miscompile quarantined, sweep survives" `Quick
      test_miscompile_quarantined_not_fatal;
    Alcotest.test_case "accounting oracles" `Quick test_accounting_oracle;
    Alcotest.test_case "failure budget aborts" `Quick test_failure_budget;
    Alcotest.test_case "seeded faultplan selector" `Quick test_faultplan_selector;
    Alcotest.test_case "parallel sweep matches sequential (42 cells)" `Quick
      test_parallel_matches_sequential;
    Alcotest.test_case "no lost/duplicated cells under faults" `Quick
      test_parallel_faults_exactly_once;
    Alcotest.test_case "parallel kill/resume determinism" `Quick
      test_parallel_kill_resume;
    Alcotest.test_case "each distinct artifact runs once per VM" `Quick
      test_each_artifact_runs_once;
  ]
