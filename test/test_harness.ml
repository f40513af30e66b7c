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
    (Zkopt_zkvm.Vm.check_accounting cfg healthy = Ok ());
  let dropped =
    Measure.run ~fault:Zkopt_zkvm.Machine.Dropped_page_out cfg c
  in
  Alcotest.(check bool) "dropped page-out caught" true
    (Result.is_error (Zkopt_zkvm.Vm.check_accounting cfg dropped));
  let truncated =
    Measure.run ~fault:Zkopt_zkvm.Machine.Truncated_final_segment
      cfg c
  in
  Alcotest.(check bool) "truncated final segment caught" true
    (Result.is_error (Zkopt_zkvm.Vm.check_accounting cfg truncated))

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
  { b with Backend.compile = (fun m -> wrap (b.Backend.compile m)) }

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

(* A cache that holds one artifact evicts each one as the next is
   compiled, so every cell that repeats an earlier cell's artifact finds
   it evicted.  Its kept runs answer it: the sweep compiles each distinct
   artifact once and runs it once per VM, and its rows are those of a
   sweep through a cache that evicts nothing.  Every cell is a CPU cell,
   so every call a repeated artifact gets was kept by its first cell. *)
let test_evicted_artifact_answered_from_kept_runs () =
  let programs = [ "fibonacci"; "factorial"; "loop-sum" ] in
  let profiles =
    Profile.Baseline
    :: List.map
         (fun p -> Profile.Single_pass p)
         [ "licm"; "mem2reg"; "gvn"; "inline"; "simplifycfg"; "adce" ]
  in
  let cells =
    List.concat_map (fun prog -> List.map (fun p -> (prog, p)) profiles) programs
  in
  let distinct =
    List.map (fun (p, prof) -> cell_fp p prof) cells |> List.sort_uniq compare |> List.length
  in
  let zk = ref 0 and cpu = ref 0 in
  let vms = [ "risc0"; "sp1" ] in
  let cfg cache =
    {
      (H.default ~size:Zkopt_workloads.Workload.Quick) with
      H.programs = Some programs;
      profiles = Some profiles;
      cache;
      backends =
        Some
          (List.map
             (fun vm -> counting ~zk ~cpu (Zkopt_backend.Registry.find vm))
             vms);
    }
  in
  let reference = H.run (cfg None) in
  zk := 0;
  cpu := 0;
  let o = H.run (cfg (Some (Cache.create ~capacity:1 ()))) in
  Alcotest.(check bool) "some cells repeat an earlier cell's artifact" true
    (distinct < List.length cells);
  Alcotest.(check bool) "the cache evicted artifacts" true
    (o.H.cache_stats.Cache.evictions > 0);
  Alcotest.(check int) "compiles = distinct artifacts" distinct
    o.H.cache_stats.Cache.misses;
  Alcotest.(check (pair int int)) "guest runs = distinct artifacts x VMs, CPU runs = distinct"
    (distinct * List.length vms, distinct) (!zk, !cpu);
  Alcotest.(check string) "rows = a sweep whose cache evicts nothing"
    (canonical reference.H.points) (canonical o.H.points)

(* A cold sequential pass over baseline and single-pass cells, whose
   runs stay in one segment, executes each distinct RV32 artifact once,
   unpriced: a cell measures the CPU model first, and that run's tally
   prices both zkVM configs, so the priced machine never runs. *)
let test_cold_pass_runs_unpriced () =
  let programs = [ "fibonacci"; "factorial"; "loop-sum" ] in
  let profiles =
    Profile.Baseline
    :: List.map
         (fun p -> Profile.Single_pass p)
         [ "licm"; "mem2reg"; "gvn"; "inline"; "simplifycfg"; "adce" ]
  in
  let distinct =
    List.concat_map (fun prog -> List.map (cell_fp prog) profiles) programs
    |> List.sort_uniq compare |> List.length
  in
  let module Machine = Zkopt_zkvm.Machine in
  let runs () = (Atomic.get Machine.priced_runs, Atomic.get Machine.unpriced_runs) in
  let p0, u0 = runs () in
  let o =
    H.run
      {
        (H.default ~size:Zkopt_workloads.Workload.Quick) with
        H.programs = Some programs;
        profiles = Some profiles;
      }
  in
  let p1, u1 = runs () in
  Alcotest.(check int) "every cell measured"
    (List.length programs * List.length profiles)
    (Hashtbl.length o.H.points);
  Alcotest.(check (pair int int)) "(priced, unpriced) runs = (0, distinct artifacts)"
    (0, distinct) (p1 - p0, u1 - u0)

(* ---- the input key ---------------------------------------------------- *)

module Pass = Zkopt_passes.Pass
module Workload = Zkopt_workloads.Workload

(* Changing any one [Pass.config] field changes the input key, and so do
   the program, the size and the pass list; the key depends on a profile
   only through [Profile.pipeline]. *)
let test_input_key_covers_inputs () =
  let c = Pass.standard_config in
  let variants =
    [ { c with Pass.cost_model = Pass.Zkvm_aware };
      { c with inline_threshold = c.inline_threshold + 1 };
      { c with inline_call_penalty = c.inline_call_penalty + 1 };
      { c with unroll_threshold = c.unroll_threshold + 1 };
      { c with unroll_max_factor = c.unroll_max_factor + 1 };
      { c with unroll_only_if_smaller = not c.unroll_only_if_smaller };
      { c with simplifycfg_select = not c.simplifycfg_select };
      { c with select_max_side_instrs = c.select_max_side_instrs + 1 };
      { c with div_to_shift = not c.div_to_shift };
      { c with licm_max_hoist = c.licm_max_hoist + 1 };
      { c with speculate = not c.speculate };
      { c with prefetch = not c.prefetch } ]
  in
  (* a field added to the record needs its variant here *)
  Alcotest.(check int) "one variant per config field" (Obj.size (Obj.repr c))
    (List.length variants);
  let fib = Workload.find "fibonacci" in
  let key ?(w = fib) ?(size = Workload.Quick) ?(passes = [ "licm"; "gvn" ]) config =
    H.input_key ~size w (Profile.Custom (passes, config))
  in
  let differs label k = Alcotest.(check bool) label false (String.equal (key c) k) in
  List.iteri (fun i v -> differs (Printf.sprintf "config field %d" i) (key v)) variants;
  differs "size" (key ~size:Workload.Full c);
  differs "program" (key ~w:(Workload.find "factorial") c);
  differs "pass list" (key ~passes:[ "licm" ] c);
  differs "pass order" (key ~passes:[ "gvn"; "licm" ] c);
  let o2 = Zkopt_passes.Catalog.O2 in
  Alcotest.(check string) "a level keys as its pipeline"
    (key ~passes:(Zkopt_passes.Catalog.pipeline o2) (Zkopt_passes.Catalog.level_config o2))
    (H.input_key ~size:Workload.Quick fib (Profile.Level o2))

(* Random (suite program, size, profile) cells, [Custom] profiles with
   random configurations, each followed by a variant that changes one
   input: the program, the size, the whole configuration or the pass
   list.  Through one cache that has recorded the first, the variant's
   resolved digest must be the digest of a fresh [prepare_ir] — so an
   input the key missed makes the variant hit the first cell's entry. *)
let prop_input_key_hit_is_fresh =
  let open QCheck.Gen in
  let programs = [ "fibonacci"; "factorial"; "loop-sum"; "tailcall"; "polybench-atax" ] in
  let passes =
    [ "mem2reg"; "inline"; "loop-unroll"; "simplifycfg"; "instcombine"; "licm";
      "loop-rotate"; "speculative-execution"; "loop-data-prefetch"; "gvn"; "sroa";
      "partial-inliner"; "indvars"; "early-cse" ]
  in
  let config =
    map
      (fun ((zk, it, pen, ut), (uf, small, sel, side), (div, hoist, spec, pre)) ->
        { Pass.cost_model = (if zk then Pass.Zkvm_aware else Pass.Standard);
          inline_threshold = it; inline_call_penalty = pen; unroll_threshold = ut;
          unroll_max_factor = uf; unroll_only_if_smaller = small;
          simplifycfg_select = sel; select_max_side_instrs = side;
          div_to_shift = div; licm_max_hoist = hoist; speculate = spec;
          prefetch = pre })
      (triple
         (quad bool (int_bound 400) (int_bound 50) (int_bound 300))
         (quad (int_range 1 8) bool bool (int_bound 6))
         (quad bool (int_bound 64) bool bool))
  in
  let cell =
    triple (oneofl programs) (oneofl [ Workload.Quick; Workload.Full ])
      (pair (list_size (int_range 1 6) (oneofl passes)) config)
  in
  let variant (p, size, (ps, cfg)) =
    oneof
      [ map (fun p' -> (p', size, (ps, cfg))) (oneofl (List.filter (( <> ) p) programs));
        return (p, (if size = Workload.Quick then Workload.Full else Workload.Quick), (ps, cfg));
        map (fun cfg' -> (p, size, (ps, cfg'))) config;
        map (fun ps' -> (p, size, (ps', cfg))) (list_size (int_range 1 6) (oneofl passes)) ]
  in
  let show (p, size, (ps, _)) =
    Printf.sprintf "%s/%s/%s" p
      (if size = Workload.Quick then "quick" else "full")
      (String.concat "," ps)
  in
  QCheck.Test.make ~name:"an input-key hit digests as a fresh prepare_ir" ~count:40
    (QCheck.make ~print:(fun (a, b) -> show a ^ " then " ^ show b)
       (cell >>= fun a -> map (fun b -> (a, b)) (variant a)))
    (fun (a, b) ->
      let cache = Cache.create () in
      let resolve (p, size, (ps, cfg)) =
        H.with_module cache ~size (Workload.find p) (Profile.Custom (ps, cfg))
          (fun ~fp _ -> fp)
      in
      let fresh (p, size, (ps, cfg)) =
        let w = Workload.find p in
        Fingerprint.of_modul
          (Measure.prepare_ir ~build:(fun () -> w.Workload.build size)
             (Profile.Custom (ps, cfg)))
      in
      (* a random pipeline may legitimately fail to prepare (as a tuner
         genome may): such a pair has no digest to compare *)
      match (fresh a, fresh b) with
      | exception e when Zkopt_autotune.Autotune.expected_failure e ->
        QCheck.assume_fail ()
      | fa, fb ->
        ignore (resolve a);
        String.equal (resolve b) fb && String.equal (resolve a) fa)

(* ---- a stale or corrupt store cannot change a row --------------------- *)

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    Sys.mkdir dst 0o755;
    Array.iter
      (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f))
      (Sys.readdir src)
  end
  else
    Out_channel.with_open_bin dst (fun oc ->
        Out_channel.output_string oc
          (In_channel.with_open_bin src In_channel.input_all))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* [s] with its first occurrence of [sub] replaced by [by]. *)
let replace_first s ~sub ~by =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then Alcotest.failf "%S not found" sub
    else if String.equal (String.sub s i n) sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

(* Metamorphic runs over one small sweep on risc0, sp1 and valida, each
   counting the guest runs it executes beneath the kept runs: no cache
   at all, a private cache, warm in memory, cold and warm over a disk
   store, and that store planted eight ways — written under another
   build identity and poisoned (kept runs swapped), an inputs row with
   one flipped byte, a row whose digest was swapped for another cell's,
   a valid row naming another cell's digest (with that digest's kept
   runs, and without them), a kept run with one flipped byte, a validly
   checked kept run that does not decode, and an artifact whose kept
   runs are gone.  Every run must give byte-identical rows, and the
   counts show what each run read: pipelines, compiles (the cache's
   misses) and guest runs. *)
let test_stale_store_cannot_change_rows () =
  Zkopt_valida.Vbackend.ensure ();
  let size = Workload.Quick in
  let programs = [ "loop-sum"; "fibonacci" ] in
  let guests = ref 0 in
  let backends =
    List.map
      (fun vm -> counting ~zk:guests ~cpu:guests (Zkopt_backend.Registry.find vm))
      [ "risc0"; "sp1"; "valida" ]
  in
  let cfg cache =
    { (subset_cfg ()) with
      H.programs = Some programs;
      cache = Some cache;
      backends = Some backends }
  in
  let cells = List.length programs * List.length subset_profiles in
  (* a sweep; [!guests] is then the guest runs it executed *)
  let run cache =
    guests := 0;
    H.run (cfg cache)
  in
  let off_outcome = run (Cache.create ()) in
  let off = canonical off_outcome.H.points in
  let all_runs = !guests in
  let same label (o : H.outcome) =
    Alcotest.(check string) (label ^ ": rows") off (canonical o.H.points)
  in
  let executes label n = Alcotest.(check int) (label ^ ": guest runs") n !guests in
  (* no cache at all: [compile_cached] without one executes every run,
     and each cell's zk and CPU metrics are its row's *)
  guests := 0;
  let cpu_cells = ref 0 in
  List.iter
    (fun program ->
      let w = Workload.find program in
      List.iter
        (fun profile ->
          let m = Measure.prepare_ir ~build:(fun () -> w.Workload.build size) profile in
          let fp = Fingerprint.of_modul m in
          let arts =
            List.map (fun b -> (b, Backend.compile_cached b ~fp (Lazy.from_val m))) backends
          in
          let zk =
            List.map
              (fun ((b : Backend.t), (c : Backend.compiled)) ->
                (c.Backend.measure ~vm:b.Backend.name ()).Backend.zk)
              arts
          in
          let cpu =
            match profile with
            | Profile.Baseline | Profile.Single_pass _ ->
              incr cpu_cells;
              List.find_map (fun (_, (c : Backend.compiled)) -> c.Backend.measure_cpu) arts
              |> Option.map (fun run -> run ?fuel:None ?sink:None ())
            | _ -> None
          in
          let row = Hashtbl.find off_outcome.H.points (program, Profile.name profile) in
          Alcotest.(check string)
            (Printf.sprintf "no cache, %s %s: metrics" program (Profile.name profile))
            (Checkpoint.encode_point row)
            (Checkpoint.encode_point { row with Cell.zk; cpu }))
        subset_profiles)
    programs;
  executes "no cache" ((cells * List.length backends) + !cpu_cells);
  let mem = Cache.create () in
  ignore (run mem);
  let warm_mem = run mem in
  same "warm in memory" warm_mem;
  Alcotest.(check int) "warm in memory: no pipeline" 0 warm_mem.H.prepared;
  executes "warm in memory" 0;
  Test_exec.with_temp_dir @@ fun dir ->
  let cold = run (Cache.create ~dir ()) in
  same "cold over disk" cold;
  Alcotest.(check int) "cold over disk: a pipeline per cell" cells cold.H.prepared;
  executes "cold over disk" all_runs;
  let ns = Filename.concat dir Cache.namespace in
  Alcotest.(check (array string)) "cold over disk: the store is one file"
    [| "inputs.log" |] (Sys.readdir ns);
  let warm = run (Cache.create ~dir ()) in
  same "warm over disk" warm;
  Alcotest.(check int) "warm over disk: no pipeline" 0 warm.H.prepared;
  Alcotest.(check int) "warm over disk: no compile" 0 warm.H.cache_stats.Cache.misses;
  Alcotest.(check (list int)) "warm over disk: no artifact lookup (hits, disk hits, compiles)"
    [ 0; 0; 0 ]
    Cache.[ warm.H.cache_stats.hits; warm.H.cache_stats.disk_hits; warm.H.cache_stats.misses ];
  executes "warm over disk" 0;
  (* two cells whose rows differ, [b] after [a] in plan order *)
  let w = Workload.find "loop-sum" in
  let a = Profile.Baseline and b = Profile.Level Zkopt_passes.Catalog.O1 in
  let fp_a = cell_fp "loop-sum" a and fp_b = cell_fp "loop-sum" b in
  let cycles p = (List.hd (Hashtbl.find warm.H.points ("loop-sum", Profile.name p)).Cell.zk).Measure.cycles in
  Alcotest.(check bool) "a's and b's rows differ" false (cycles a = cycles b);
  let planted name plant =
    let d = Filename.concat dir name in
    Sys.mkdir d 0o755;
    plant d;
    run (Cache.create ~dir:d ())
  in
  let log d = Filename.concat (Filename.concat d Cache.namespace) "inputs.log" in
  let rows_of path = String.split_on_char '\n' (read_file path) in
  (* the kept runs of artifact [fp]: (the run key after [fp], value),
     read from the rows whose key, unlike an input key, holds a space *)
  let runs_of fp =
    List.filter_map
      (fun row ->
        match String.split_on_char '\t' row with
        | [ key; value; _ ] when String.starts_with ~prefix:(fp ^ "+") key && String.contains key ' ' ->
          let n = String.length fp in
          Some (String.sub key n (String.length key - n), value)
        | _ -> None)
      (rows_of (log dir))
  in
  (* log rows that pass their check, written through the cache itself *)
  let checked_rows pairs =
    Test_exec.with_temp_dir @@ fun tmp ->
    let c = Cache.create ~dir:tmp () in
    List.iter (fun (key, value) -> Cache.record c ~key ~value) pairs;
    read_file (log tmp)
  in
  (* a's and b's kept runs with their values swapped, checks valid *)
  let swapped_runs =
    checked_rows
      (List.concat_map
         (fun (run, value_a) ->
           match List.assoc_opt run (runs_of fp_b) with
           | Some value_b -> [ (fp_a ^ run, value_b); (fp_b ^ run, value_a) ]
           | None -> [])
         (runs_of fp_a))
  in
  Alcotest.(check bool) "a and b have kept runs in common" true (swapped_runs <> "");
  (* another build's namespace, with a's and b's kept runs swapped: were
     it read, both cells would come back wrong, and fewer guests would
     run *)
  let foreign =
    planted "foreign" (fun d ->
        List.iter
          (fun other ->
            let o = Filename.concat d other in
            copy_tree ns o;
            let olog = Filename.concat o "inputs.log" in
            write_file olog (read_file olog ^ swapped_runs))
          [ "0123456789abcdef0123456789abcdef"; "zkopt-exec-v2" ])
  in
  same "store of another build" foreign;
  Alcotest.(check int) "store of another build: no disk hit" 0
    foreign.H.cache_stats.Cache.disk_hits;
  Alcotest.(check int) "store of another build: a pipeline per cell" cells
    foreign.H.prepared;
  executes "store of another build" all_runs;
  let key_a = H.input_key ~size w a and key_b = H.input_key ~size w b in
  let row_of key s =
    List.find (String.starts_with ~prefix:key) (String.split_on_char '\n' s)
  in
  (* a's row with one byte of its digest flipped, b's row with its digest
     swapped for a's: both fail their check and are skipped *)
  let corrupt =
    planted "corrupt" (fun d ->
        copy_tree ns (Filename.concat d Cache.namespace);
        let s = read_file (log d) in
        let ra = row_of key_a s and rb = row_of key_b s in
        let flipped = Bytes.of_string fp_a in
        Bytes.set flipped 5 (Char.chr (Char.code fp_a.[5] lxor 1));
        let s = replace_first s ~sub:ra ~by:(replace_first ra ~sub:fp_a ~by:(Bytes.to_string flipped)) in
        write_file (log d) (replace_first s ~sub:rb ~by:(replace_first rb ~sub:fp_b ~by:fp_a)))
  in
  same "corrupt inputs rows" corrupt;
  Alcotest.(check int) "corrupt inputs rows: exactly those cells prepared" 2
    corrupt.H.prepared;
  executes "corrupt inputs rows" 0;
  (* [d]'s copy of the store with the kept runs whose key starts with
     [prefix] dropped: the number dropped *)
  let drop_runs d ~prefix =
    let is_run row =
      match String.split_on_char '\t' row with
      | key :: _ -> String.starts_with ~prefix key && String.contains key ' '
      | [] -> false
    in
    let kept, rest = List.partition is_run (rows_of (log d)) in
    write_file (log d) (String.concat "\n" rest);
    List.length kept
  in
  (* A valid row sending a to b's digest.  The row passes its check, so
     nothing but a's calls can catch it: a call that b's kept runs answer
     forces no module, and a cell all of whose calls they answered would
     get b's row.  The row check catches corruption; only a writer in
     this build's namespace can write a checked but wrong row.  Here a is
     the baseline, whose first call is a CPU-model run, and b, an -O1
     cell, kept none: that call compiles b's digest from a's module,
     whose digest is not b's, so a is measured from its fresh module,
     from a's own kept runs. *)
  let misdirected name ~drop_b =
    let dropped = ref 0 in
    let o =
      planted name (fun d ->
          copy_tree ns (Filename.concat d Cache.namespace);
          if drop_b then dropped := drop_runs d ~prefix:(fp_b ^ "+");
          Cache.record (Cache.create ~dir:d ()) ~key:key_a ~value:fp_b)
    in
    same name o;
    (o, !dropped)
  in
  (* b's kept runs answer b: only a's module is prepared, and nothing is
     compiled or run *)
  let to_b, _ = misdirected "row naming another cell's digest" ~drop_b:false in
  Alcotest.(check (list int)) "row naming another cell's digest: pipelines, compiles, guest runs"
    [ 1; 0; 0 ]
    [ to_b.H.prepared; to_b.H.cache_stats.Cache.misses; !guests ];
  (* with b's kept runs gone, b is compiled (on RV32 and valida) from its
     own module, and exactly b's runs execute *)
  let to_gone, dropped_b = misdirected "row naming a digest without kept runs" ~drop_b:true in
  Alcotest.(check bool) "b had kept runs" true (dropped_b > 0);
  Alcotest.(check (list int)) "row naming a digest without kept runs: pipelines, compiles, guest runs"
    [ 2; 2; dropped_b ]
    [ to_gone.H.prepared; to_gone.H.cache_stats.Cache.misses; !guests ];
  (* the key and value of a's kept run on RV32 backend [vm] *)
  let kept_a vm =
    let prefix = "+" ^ Zkopt_backend.Rv32.schema ^ " " ^ vm ^ " " in
    let run, value = List.find (fun (run, _) -> String.starts_with ~prefix run) (runs_of fp_a) in
    (fp_a ^ run, value)
  in
  (* a's kept risc0 run with one byte of its value (a cycles digit)
     flipped: the row fails its check, so exactly that run executes
     again, on a's artifact compiled from a's own module *)
  let flipped_run =
    planted "flipped-run" (fun d ->
        copy_tree ns (Filename.concat d Cache.namespace);
        let s = read_file (log d) in
        let key, _ = kept_a "risc0" in
        let row = row_of (key ^ "\t") s in
        let at = String.length key + String.length "\trisc0 " in
        let flipped = Bytes.of_string row in
        Bytes.set flipped at (Char.chr (Char.code row.[at] lxor 1));
        write_file (log d) (replace_first s ~sub:row ~by:(Bytes.to_string flipped)))
  in
  same "kept run with a flipped byte" flipped_run;
  Alcotest.(check (pair int int)) "kept run with a flipped byte: one pipeline, one compile"
    (1, 1)
    (flipped_run.H.prepared, flipped_run.H.cache_stats.Cache.misses);
  executes "kept run with a flipped byte" 1;
  (* a's kept sp1 run replaced by a validly checked value without its
     first field: it does not decode, so it is a miss, not an exception *)
  let short_run =
    planted "short-run" (fun d ->
        copy_tree ns (Filename.concat d Cache.namespace);
        let key, value = kept_a "sp1" in
        let short = String.concat " " (List.tl (String.split_on_char ' ' value)) in
        Cache.record (Cache.create ~dir:d ()) ~key ~value:short)
  in
  same "kept run that does not decode" short_run;
  Alcotest.(check (pair int int)) "kept run that does not decode: one pipeline, one compile"
    (1, 1)
    (short_run.H.prepared, short_run.H.cache_stats.Cache.misses);
  executes "kept run that does not decode" 1;
  (* a's RV32 kept runs dropped from the log: a's handle must compile the
     artifact, from a's own module, and exactly the dropped runs execute *)
  let dropped = ref 0 in
  let dropped_runs =
    planted "dropped-runs" (fun d ->
        copy_tree ns (Filename.concat d Cache.namespace);
        dropped := drop_runs d ~prefix:(fp_a ^ "+" ^ Zkopt_backend.Rv32.schema ^ " "))
  in
  Alcotest.(check bool) "a's RV32 artifact had kept runs" true (!dropped > 0);
  same "artifact without kept runs" dropped_runs;
  Alcotest.(check (list int)) "artifact without kept runs: pipelines, compiles, disk hits"
    [ 1; 1; 0 ]
    Cache.[ dropped_runs.H.prepared; dropped_runs.H.cache_stats.misses;
            dropped_runs.H.cache_stats.disk_hits ];
  executes "artifact without kept runs" !dropped

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
    Alcotest.test_case "a cold pass runs each artifact once, unpriced" `Quick
      test_cold_pass_runs_unpriced;
    Alcotest.test_case "each distinct artifact runs once per VM" `Quick
      test_each_artifact_runs_once;
    Alcotest.test_case "an evicted artifact is answered from its kept runs" `Quick
      test_evicted_artifact_answered_from_kept_runs;
    Alcotest.test_case "input key covers every input" `Quick
      test_input_key_covers_inputs;
    Alcotest.test_case "a stale or corrupt store cannot change a row" `Quick
      test_stale_store_cannot_change_rows;
    QCheck_alcotest.to_alcotest prop_input_key_hit_is_fresh;
  ]
