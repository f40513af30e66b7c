(** lib/fuzz: case codecs, the delta-debugging minimizer (classification
    preservation, fixpoint, well-formedness), campaign checkpoint
    kill/resume determinism, and the injected-miscompile end-to-end path
    (catch -> minimize -> persist -> replay). *)

open Zkopt_ir
module Case = Zkopt_fuzz.Case
module Minimize = Zkopt_fuzz.Minimize
module Corpus = Zkopt_fuzz.Corpus
module Campaign = Zkopt_fuzz.Campaign
module Faultplan = Zkopt_harness.Faultplan
module Machine = Zkopt_zkvm.Machine

let risc0 = Case.resolve_backend "risc0"

(* ---- codecs ---------------------------------------------------------- *)

let test_source_codec () =
  let roundtrip s =
    match Case.source_of_name (Case.source_name s) with
    | Some s' -> Alcotest.(check string) "round trip" (Case.source_name s) (Case.source_name s')
    | None -> Alcotest.fail ("unparseable: " ^ Case.source_name s)
  in
  roundtrip (Case.seed 42);
  roundtrip (Case.Workload "factorial");
  let knobs = { Randprog.default_knobs with Randprog.budget = 20; memory = false } in
  roundtrip (Case.seed ~knobs 7);
  Alcotest.(check string) "default knobs stay implicit" "seed:42"
    (Case.source_name (Case.seed 42));
  Alcotest.(check bool) "bad name rejected" true
    (Case.source_of_name "seed:abc" = None);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " rejected") true
        (Case.source_of_name name = None))
    [ "seed:3[budget=x]"; "seed:3[calls=maybe]"; "seed:3[nosuch=1]" ];
  (* non-default knobs change the generated program *)
  let a = Modul.instr_count (Case.build_source (Case.seed 3)) in
  let b =
    Modul.instr_count
      (Case.build_source
         (Case.seed ~knobs:{ knobs with Randprog.budget = 8 } 3))
  in
  Alcotest.(check bool) "knobs shrink generation" true (b < a)

let test_pipeline_spec () =
  let ok spec =
    match Case.pipeline_of_spec spec with
    | Ok p -> p.Case.spec
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "baseline" "baseline" (ok "baseline");
  Alcotest.(check string) "level" "O2" (ok "O2");
  Alcotest.(check string) "single pass" "licm" (ok "licm");
  Alcotest.(check string) "sequence" "inline;licm" (ok "inline;licm");
  Alcotest.(check string) "zk sequence" "zk:inline;licm" (ok "zk:inline;licm");
  (* every profile name: the spec keeps its form and parses back to the
     same profile; the zkVM-aware -O3 is always "zk-o3" *)
  let parses_back spec =
    match Case.pipeline_of_spec spec with
    | Error e -> Alcotest.fail e
    | Ok p ->
      Alcotest.(check bool) (spec ^ " parses back") true
        (match Case.pipeline_of_spec p.Case.spec with
        | Ok p' -> p'.Case.profile = p.Case.profile
        | Error _ -> false)
  in
  List.iter parses_back [ "-O3"; "-O3(zkvm)" ];
  Alcotest.(check string) "dashed level keeps its form" "-O3" (ok "-O3");
  Alcotest.(check string) "-O3(zkvm)" "zk-o3" (ok "-O3(zkvm)");
  Alcotest.(check string) "zkvm-o3" "zk-o3" (ok "zkvm-o3");
  List.iter
    (fun l -> Alcotest.(check string) l l (ok l))
    [ "O0"; "O1"; "O2"; "O3"; "Os"; "Oz" ];
  (match Case.pipeline_of_spec "nosuchpass" with
  | Ok _ -> Alcotest.fail "unknown pass accepted"
  | Error _ -> ());
  match Case.pipeline_of_spec "licm;nosuchpass" with
  | Ok _ -> Alcotest.fail "unknown pass in sequence accepted"
  | Error _ -> ()

let test_row_codec () =
  let row = { Campaign.src = "seed:9"; spec = "zk:licm"; status = "risc0:miscompile"; detail = "checksum 0" } in
  (match Campaign.decode_row (Campaign.encode_row row) with
  | Some r -> Alcotest.(check bool) "round trip" true (r = row)
  | None -> Alcotest.fail "decode failed");
  (* a row truncated by a kill loses the "." terminal field *)
  let enc = Campaign.encode_row row in
  for cut = 1 to String.length enc - 1 do
    match Campaign.decode_row (String.sub enc 0 cut) with
    | Some r when r = row -> ()
    | Some r ->
      Alcotest.fail
        (Printf.sprintf "truncation at %d decoded as %s" cut (Campaign.encode_row r))
    | None -> ()
  done;
  Alcotest.(check bool) "header is not a row" true
    (Campaign.decode_row "zkopt-fuzzckpt-v1" = None)

let prop_step_codec =
  QCheck.Test.make ~name:"minimizer step codec round-trips" ~count:200
    QCheck.(quad (int_range 0 3) small_printable_string (int_range 0 40) (int_range 0 5))
    (fun (tag, name, index, operand) ->
      QCheck.assume (not (String.contains name ' '));
      QCheck.assume (String.length name > 0);
      let func = "f" ^ name and block = "b" ^ name in
      let step =
        match tag with
        | 0 -> Minimize.Drop_instr { func; block; index }
        | 1 -> Minimize.Drop_block { func; block }
        | 2 -> Minimize.Cbr_to_br { func; block; taken = index mod 2 = 0 }
        | _ -> Minimize.Imm_operand { func; block; index; operand }
      in
      Minimize.step_of_string (Minimize.step_to_string step) = Some step)

(* ---- minimizer properties -------------------------------------------- *)

(* A case that always diverges: Corrupt_exit_value xors the backend's
   exit value unconditionally, so the differential oracle fires on every
   program — ideal for exercising the shrinker on arbitrary seeds. *)
let corrupt_case seed =
  let case =
    { Case.source = Case.seed seed; pipeline = Case.baseline; backends = [ risc0 ] }
  in
  let fp =
    Faultplan.inject
      [
        ( { Faultplan.program = Case.source_name case.Case.source;
            profile = "baseline"; vm = "risc0" },
          Machine.Corrupt_exit_value );
      ]
  in
  (case, fp)

let prop_minimizer =
  QCheck.Test.make
    ~name:"shrunk case keeps its classification, reaches a fixpoint, verifies"
    ~count:5
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let case, fp = corrupt_case seed in
      let base = Case.build_source case.Case.source in
      let key =
        match Case.run ~faultplan:fp ~fuel:2_000_000 case ~base with
        | Case.Diverged d -> Case.divergence_key d
        | Case.Agree -> QCheck.Test.fail_report "corrupt fault did not fire"
      in
      let repro m =
        match Case.run ~faultplan:fp ~fuel:2_000_000 case ~base:m with
        | Case.Diverged d -> String.equal (Case.divergence_key d) key
        | Case.Agree -> false
      in
      let m, steps = Minimize.minimize ~repro base in
      (* 1: the minimized program still reproduces the same key *)
      if not (repro m) then QCheck.Test.fail_report "classification lost";
      (* 2: fixpoint — a second minimize pass accepts nothing *)
      let m2, steps2 = Minimize.minimize ~repro m in
      if steps2 <> [] then QCheck.Test.fail_report "not a fixpoint";
      if Minimize.size m2 <> Minimize.size m then
        QCheck.Test.fail_report "fixpoint changed size";
      (* 3: the minimized module is Verify-well-formed *)
      let linked = Clone.modul m in
      Zkopt_runtime.Runtime.link linked;
      Verify.check linked;
      (* 4: the recorded trace rebuilds the minimized program *)
      let replayed = Case.build_source case.Case.source in
      if not (Minimize.apply_all replayed steps) then
        QCheck.Test.fail_report "trace does not re-apply";
      if Minimize.size replayed <> Minimize.size m then
        QCheck.Test.fail_report "trace replay differs from minimized module";
      true)

(* ---- campaign kill/resume -------------------------------------------- *)

let campaign_cfg ~checkpoint =
  {
    (Campaign.default ~backends:[ risc0 ]) with
    Campaign.sources = List.init 6 (fun i -> Case.seed (i + 1));
    pipelines =
      [
        Case.baseline;
        (match Case.pipeline_of_spec "O1" with Ok p -> p | Error e -> failwith e);
      ];
    jobs = 3;
    checkpoint = Some checkpoint;
    resume = true;
  }

let test_kill_resume_determinism () =
  let path_a = Filename.temp_file "zkopt_fuzzckpt" ".a" in
  let path_b = Filename.temp_file "zkopt_fuzzckpt" ".b" in
  let path_c = Filename.temp_file "zkopt_fuzzckpt" ".c" in
  Sys.remove path_a;
  Sys.remove path_b;
  Sys.remove path_c;
  (* uninterrupted 3-domain run *)
  let full = Campaign.run (campaign_cfg ~checkpoint:path_a) in
  Alcotest.(check int) "12 cases" 12 full.Campaign.planned;
  Alcotest.(check int) "all ran" 12 full.Campaign.ran;
  (* killed mid-run: only the first 5 cases execute *)
  let partial =
    Campaign.run { (campaign_cfg ~checkpoint:path_b) with Campaign.limit = Some 5 }
  in
  Alcotest.(check int) "partial ran" 5 partial.Campaign.ran;
  (* simulate the kill shearing a row mid-write *)
  let oc = open_out_gen [ Open_append ] 0o644 path_b in
  output_string oc "seed:6\tO1\tagre";
  close_out oc;
  (* resume: the 5 done cases are skipped, the rest complete *)
  let resumed = Campaign.run (campaign_cfg ~checkpoint:path_b) in
  Alcotest.(check int) "resumed" 5 resumed.Campaign.resumed;
  Alcotest.(check int) "newly ran" 7 resumed.Campaign.ran;
  (* the same campaign inline, one case at a time *)
  ignore
    (Campaign.run { (campaign_cfg ~checkpoint:path_c) with Campaign.jobs = 1 });
  let read path = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string) "resumed checkpoint byte-identical, unsorted"
    (read path_a) (read path_b);
  Alcotest.(check string) "jobs 1 checkpoint byte-identical, unsorted"
    (read path_a) (read path_c);
  List.iter Sys.remove [ path_a; path_b; path_c ]

let test_failure_budget () =
  (* every case diverges (corrupt fault at every site); budget 1 stops
     the campaign after the first finding *)
  let sources = List.init 4 (fun i -> Case.seed (i + 1)) in
  let fp =
    Faultplan.inject
      (List.map
         (fun s ->
           ( { Faultplan.program = Case.source_name s;
               profile = "baseline"; vm = "risc0" },
             Machine.Corrupt_exit_value ))
         sources)
  in
  let s =
    Campaign.run
      {
        (Campaign.default ~backends:[ risc0 ]) with
        Campaign.sources;
        faultplan = fp;
        failure_budget = Some 1;
        jobs = 1;
      }
  in
  Alcotest.(check bool) "budget hit" true s.Campaign.budget_hit;
  Alcotest.(check int) "one finding" 1 (List.length s.Campaign.findings);
  Alcotest.(check bool) "stopped early" true (s.Campaign.ran < s.Campaign.planned)

(* ---- injected miscompile: catch -> minimize -> persist -> replay ----- *)

let test_fault_end_to_end () =
  let dir = Filename.temp_file "zkopt_corpus" "" in
  Sys.remove dir;
  let fp =
    Faultplan.inject
      [
        ( { Faultplan.program = "seed:5"; profile = "O1"; vm = "risc0" },
          Machine.Corrupt_exit_value );
      ]
  in
  let s =
    Campaign.run
      {
        (Campaign.default ~backends:[ risc0 ]) with
        Campaign.sources = List.init 6 (fun i -> Case.seed (i + 1));
        pipelines =
          [
            Case.baseline;
            (match Case.pipeline_of_spec "O1" with Ok p -> p | Error e -> failwith e);
          ];
        faultplan = fp;
        minimize = true;
        corpus = Some dir;
        jobs = 2;
      }
  in
  (* exactly the faulted cell is caught *)
  (match s.Campaign.findings with
  | [ f ] ->
    Alcotest.(check string) "source" "seed:5"
      (Case.source_name f.Campaign.case.Case.source);
    Alcotest.(check string) "pipeline" "O1" f.Campaign.case.Case.pipeline.Case.spec;
    Alcotest.(check string) "classification" "risc0:miscompile"
      (Case.divergence_key f.Campaign.divergence);
    (* minimized strictly smaller than the generated program *)
    let orig = Modul.instr_count (Case.build_source f.Campaign.case.Case.source) in
    (match f.Campaign.minimized_instrs with
    | Some n -> Alcotest.(check bool) "strictly smaller" true (n < orig)
    | None -> Alcotest.fail "not minimized");
    (* persisted and replayable *)
    (match f.Campaign.corpus_path with
    | None -> Alcotest.fail "no corpus entry"
    | Some path -> (
      match Corpus.load_file path with
      | Error e -> Alcotest.fail e
      | Ok entry ->
        Alcotest.(check bool) "reduction trace recorded" true
          (entry.Corpus.steps <> []);
        Alcotest.(check string) "fault recorded" "corrupt-exit-value"
          (match entry.Corpus.fault with
          | Some (_, k) -> Faultplan.kind_name k
          | None -> "none");
        (match Corpus.replay entry with
        | Corpus.Reproduced -> ()
        | r -> Alcotest.fail ("replay: " ^ Corpus.replay_name r));
        (* corpus round trip is stable *)
        (match Corpus.of_string (Corpus.to_string entry ~program:None) with
        | Ok e' -> Alcotest.(check string) "codec stable" (Corpus.id entry) (Corpus.id e')
        | Error e -> Alcotest.fail e)))
  | fs -> Alcotest.fail (Printf.sprintf "%d findings, expected 1" (List.length fs)));
  (* clean divergence-free campaign over the same plan without the fault *)
  let clean =
    Campaign.run
      {
        (Campaign.default ~backends:[ risc0 ]) with
        Campaign.sources = List.init 6 (fun i -> Case.seed (i + 1));
        jobs = 2;
      }
  in
  Alcotest.(check int) "no findings without the fault" 0
    (List.length clean.Campaign.findings);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let property_tests =
  List.map QCheck_alcotest.to_alcotest [ prop_step_codec; prop_minimizer ]

let tests =
  [
    Alcotest.test_case "source codec" `Quick test_source_codec;
    Alcotest.test_case "pipeline specs" `Quick test_pipeline_spec;
    Alcotest.test_case "checkpoint row codec" `Quick test_row_codec;
    Alcotest.test_case "kill/resume determinism" `Quick test_kill_resume_determinism;
    Alcotest.test_case "failure budget" `Quick test_failure_budget;
    Alcotest.test_case "injected miscompile end-to-end" `Quick test_fault_end_to_end;
  ]
  @ property_tests
