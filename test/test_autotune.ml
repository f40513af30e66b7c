(** Autotune engine tests: genome-operator well-formedness, the failure
    taxonomy, a monotone best-so-far history, the §4.2 sequence miner
    against brute-force oracles, the pool-backed search engine's
    byte-identical rows at any [jobs] with a live prefix cache,
    engine-level checkpoint resume, and the autotune-as-a-service
    kill/restart path (mirroring the sweep case in {!Test_serve}). *)

module A = Zkopt_autotune.Autotune
module Miner = Zkopt_autotune.Miner
module Tuned = Zkopt_autotune.Tuned
module Workload = Zkopt_workloads.Workload
module Job = Zkopt_serve.Job
module Proto = Zkopt_serve.Proto
module Daemon = Zkopt_serve.Daemon
module Client = Zkopt_serve.Client

(* ---- genome operators ------------------------------------------------- *)

let well_formed (g : A.genome) =
  g <> []
  && List.length g <= A.max_depth
  && List.for_all (fun p -> List.mem p A.gene_pool) g

let qcheck_operators_well_formed =
  QCheck.Test.make ~name:"random/mutate/crossover genomes stay well-formed"
    ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let a = A.random_genome rng in
      let b = A.random_genome rng in
      well_formed a && well_formed b
      && well_formed (A.mutate rng a)
      && well_formed (A.crossover rng a b))

(* ---- expected_failure: failure taxonomy ------------------------------ *)

let test_expected_failure_taxonomy () =
  (* expected measurement failures score worst instead of raising *)
  List.iter
    (fun (label, (e : exn)) ->
      Alcotest.(check bool) label true (A.expected_failure e))
    [
      ("fuel exhaustion is expected", Zkopt_ir.Interp.Out_of_fuel);
      ("ill-formed IR is expected", Zkopt_ir.Verify.Ill_formed "bad phi");
      ("emulator trap is expected", Zkopt_riscv.Emulator.Trap "misaligned");
    ];
  (* harness bugs and oracle violations must propagate *)
  List.iter
    (fun (label, (e : exn)) ->
      Alcotest.(check bool) label false (A.expected_failure e))
    [
      ("Stack_overflow propagates", Stack_overflow);
      ("assertion failure propagates", Assert_failure ("t", 0, 0));
      ( "accounting violation propagates",
        Zkopt_harness.Error.Accounting "leaked cycles" );
    ]

(* ---- search history shape ---------------------------------------------- *)

(* a cheap synthetic target: cycles are a hash of the module fingerprint *)
let synthetic_target =
  {
    A.tname = "synthetic";
    pname = "factorial";
    weight = 1.0;
    build =
      (fun () -> (Workload.find "factorial").Workload.build Workload.Quick);
    measure = (fun ~fp _ -> Hashtbl.hash fp land 0xffff);
  }

let qcheck_history_monotone =
  QCheck.Test.make ~name:"best-so-far history is monotone non-increasing"
    ~count:10
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let o =
        A.search
          (A.default ~seed ~population:6 ~iterations:30 ())
          ~targets:[ synthetic_target ]
      in
      let r = Option.get o.A.result in
      r.A.history <> []
      && fst
           (List.fold_left
              (fun (ok, prev) b ->
                match prev with
                | None -> (ok, Some b)
                | Some p -> (ok && b <= p, Some b))
              (true, None) r.A.history))

(* ---- miner vs brute-force oracles ------------------------------------- *)

let seqs_gen : string list list QCheck.Gen.t =
  let open QCheck.Gen in
  let gene = oneofl [ "a"; "b"; "c" ] in
  list_size (int_range 1 8) (list_size (int_range 0 6) gene)

let qcheck_pair_equals_subsequence =
  (* the ordered-pair counter is exactly 2-element subsequence support,
     including the a = b case (two distinct occurrences required) *)
  QCheck.Test.make ~name:"count_ordered_pair = count_subsequence [a;b]"
    ~count:300
    (QCheck.make QCheck.Gen.(pair (pair (oneofl [ "a"; "b"; "c" ]) (oneofl [ "a"; "b"; "c" ])) seqs_gen))
    (fun ((a, b), seqs) ->
      Miner.count_ordered_pair a b seqs = Miner.count_subsequence [ a; b ] seqs)

let qcheck_pair_table_complete =
  QCheck.Test.make ~name:"pair_table lists every non-zero ordered pair"
    ~count:200 (QCheck.make seqs_gen)
    (fun seqs ->
      let table = Miner.pair_table seqs in
      let genes = [ "a"; "b"; "c" ] in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              let c = Miner.count_ordered_pair a b seqs in
              let listed = List.assoc_opt (a, b) table in
              if c = 0 then listed = None else listed = Some c)
            genes)
        genes)

(* brute-force frequent-subsequence oracle: enumerate every candidate
   over the full alphabet up to max_len and keep those meeting the
   support floor *)
let brute_frequent ~min_support ~max_len seqs =
  let genes = Miner.alphabet seqs in
  let rec candidates len =
    if len = 0 then [ [] ]
    else
      let shorter = candidates (len - 1) in
      shorter
      @ List.concat_map
          (fun sq ->
            if List.length sq = len - 1 then
              List.map (fun g -> sq @ [ g ]) genes
            else [])
          shorter
  in
  List.filter_map
    (fun sq ->
      if sq = [] then None
      else
        let s = Miner.count_subsequence sq seqs in
        if s >= min_support then Some (sq, s) else None)
    (candidates max_len)

let qcheck_frequent_matches_bruteforce =
  QCheck.Test.make ~name:"level-wise miner = brute-force enumeration"
    ~count:100 (QCheck.make seqs_gen)
    (fun seqs ->
      let norm l = List.sort compare l in
      norm (Miner.frequent ~min_support:2 ~max_len:3 seqs)
      = norm (brute_frequent ~min_support:2 ~max_len:3 seqs))

let qcheck_maximal_sound =
  QCheck.Test.make ~name:"maximal keeps no proper subsequence of a kept seq"
    ~count:100 (QCheck.make seqs_gen)
    (fun seqs ->
      let mined = Miner.frequent ~min_support:2 ~max_len:3 seqs in
      let kept = Miner.maximal mined in
      (* soundness: no kept sequence is a proper subsequence of another *)
      List.for_all
        (fun (s, _) ->
          not
            (List.exists
               (fun (t, _) -> t <> s && Miner.is_subsequence s t)
               kept))
        kept
      (* completeness: every dropped sequence is subsumed by a kept one *)
      && List.for_all
           (fun (s, _) ->
             List.mem_assoc s kept
             || List.exists
                  (fun (t, _) -> t <> s && Miner.is_subsequence s t)
                  kept)
           mined)

let test_contrast_scores () =
  let best = [ [ "inline"; "licm" ]; [ "inline"; "dce"; "licm" ] ] in
  let worst = [ [ "licm"; "inline" ]; [ "reg2mem" ] ] in
  let cs = Miner.contrast_mine ~min_support:2 ~max_len:2 ~best ~worst () in
  let find sq = List.find_opt (fun c -> c.Miner.seq = sq) cs in
  (match find [ "inline"; "licm" ] with
  | Some c ->
    Alcotest.(check int) "inline..licm supports all best" 2 c.Miner.support_best;
    Alcotest.(check int) "inline..licm supports no worst" 0
      c.Miner.support_worst;
    Alcotest.(check (float 1e-9)) "inline..licm contrast +1.0" 1.0
      c.Miner.score
  | None -> Alcotest.fail "inline..licm not mined");
  (* sorted by score descending: the winning motif leads *)
  match cs with
  | top :: _ ->
    Alcotest.(check (list string)) "winning motif ranks first"
      [ "inline"; "licm" ] top.Miner.seq
  | [] -> Alcotest.fail "nothing mined"

(* ---- the search engine over a real backend target --------------------- *)

let factorial_target ?cache () =
  let w = Workload.find "factorial" in
  let build () = w.Workload.build Workload.Quick in
  let b = Zkopt_backend.Registry.find "risc0" in
  A.backend_target ?cache ~program:"factorial" ~build b

let run_search ?(jobs = 1) ?(iterations = 8) ?checkpoint ?(resume = false)
    ?(stop = fun () -> false) ?on_row () =
  let rows = ref [] in
  let record r =
    rows := r :: !rows;
    Option.iter (fun f -> f r) on_row
  in
  let cfg =
    {
      (A.default ~seed:7 ~population:4 ~iterations ~jobs ()) with
      A.checkpoint;
      resume;
      stop;
      on_row = record;
    }
  in
  let o = A.search cfg ~targets:[ factorial_target () ] in
  (o, List.rev !rows)

let test_search_rows_jobs_independent () =
  let o1, rows1 = run_search ~jobs:1 () in
  let o4, rows4 = run_search ~jobs:4 () in
  Alcotest.(check (list string)) "rows byte-identical at jobs 1 vs 4" rows1
    rows4;
  Alcotest.(check bool) "both runs completed" true
    (o1.A.completed && o4.A.completed);
  let r = Option.get o1.A.result in
  Alcotest.(check int) "8 evaluations over 2 generations" 8 r.A.evaluations;
  Alcotest.(check int) "two-entry history" 2 (List.length r.A.history);
  Alcotest.(check bool) "prefix cache saw hits" true
    (o1.A.cache_stats.A.prefix.Zkopt_exec.Cache.hits > 0)

let test_search_checkpoint_resume () =
  let ckpt = Filename.temp_file "zkopt-tune" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove ckpt with Sys_error _ -> ())
  @@ fun () ->
  (* reference: uninterrupted 3-generation run *)
  let _, ref_rows = run_search ~iterations:12 () in
  (* interrupted: stop at the boundary after the second generation (the
     stop hook is polled between generations; G rows count them) *)
  let gens = ref 0 in
  let o1, _ =
    run_search ~iterations:12 ~checkpoint:ckpt
      ~stop:(fun () -> !gens >= 2)
      ~on_row:(fun r -> if String.length r > 0 && r.[0] = 'G' then incr gens)
      ()
  in
  Alcotest.(check bool) "interrupted run did not complete" false
    o1.A.completed;
  (* shear the checkpoint tail to the torn-write shape a kill leaves:
     the second generation loses its G row and must re-run live *)
  let ic = open_in ckpt in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  (match !lines with
  | last :: rest ->
    let oc = open_out ckpt in
    List.iter
      (fun l ->
        output_string oc l;
        output_char oc '\n')
      (List.rev rest);
    output_string oc (String.sub last 0 (String.length last / 2));
    close_out oc
  | [] -> Alcotest.fail "interrupted run left no checkpoint");
  (* resume over the sheared log: replayed + live rows must equal the
     uninterrupted reference byte-for-byte, in order *)
  let o2, rows = run_search ~iterations:12 ~checkpoint:ckpt ~resume:true () in
  Alcotest.(check bool) "resumed run completed" true o2.A.completed;
  Alcotest.(check bool) "resumed run replayed evaluations" true
    (o2.A.resumed > 0);
  Alcotest.(check (list string)) "resumed rows = uninterrupted rows" ref_rows
    rows

(* ---- tuned-profile persistence ---------------------------------------- *)

let test_tuned_roundtrip () =
  let path = Filename.temp_file "zkopt-tuned" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let entries =
    [
      Tuned.entry ~program:"factorial" ~vm:"risc0" ~cycles:123
        [ "inline"; "licm"; "dce" ];
      Tuned.entry ~program:"sha256" ~vm:"sp1" ~cycles:456 [ "mem2reg" ];
    ]
  in
  (match Tuned.save path entries with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save failed: %s" e);
  match Tuned.load path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok back ->
    Alcotest.(check int) "both entries survive" 2 (List.length back);
    List.iter2
      (fun (a : Tuned.entry) (b : Tuned.entry) ->
        Alcotest.(check string) "name" a.Tuned.name b.Tuned.name;
        Alcotest.(check (list string)) "passes" a.Tuned.passes b.Tuned.passes;
        Alcotest.(check int) "cycles" a.Tuned.cycles b.Tuned.cycles)
      entries back;
    let p = Tuned.to_profile (List.hd back) in
    Alcotest.(check string) "profile name carries the tuned tag"
      "tuned:factorial@risc0"
      (Zkopt_core.Profile.name p)

(* ---- autotune as a service: kill and resume --------------------------- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "zktune-test-%d-%d" (Unix.getpid ()) !n)
    in
    (try Sys.mkdir d 0o755 with Sys_error _ -> ());
    d

let sock_of dir = Filename.concat dir "zkbench.sock"

let submit_collect dir spec =
  let rows = ref [] in
  match
    Client.with_connection (sock_of dir) (fun c ->
        Client.submit_and_watch
          ~on_event:(function
            | Proto.Row { data; _ } -> rows := data :: !rows
            | _ -> ())
          c spec)
  with
  | Ok (_id, outcome) -> (List.rev !rows, outcome)
  | Error msg -> Alcotest.failf "submit failed: %s" msg

let tune_spec =
  Job.Autotune
    {
      program = "factorial";
      iters = 16;
      vm = "risc0";
      quick = true;
      seed = 7;
      population = 4;
    }

let test_service_restart_resumes_byte_identical () =
  (* uninterrupted reference through the daemon machinery *)
  let ref_dir = fresh_dir () in
  let dref = Daemon.start ~jobs:2 ~dir:ref_dir () in
  let ref_rows, ref_out =
    Fun.protect
      ~finally:(fun () -> Daemon.stop dref)
      (fun () -> submit_collect ref_dir tune_spec)
  in
  (match ref_out with
  | `Done _ -> ()
  | `Failed m -> Alcotest.failf "reference tune failed: %s" m);
  Alcotest.(check bool) "reference streamed rows" true (ref_rows <> []);
  (* interrupted state, built rather than raced for: run the job to
     completion, then rewind its state directory to what a kill during
     generation 1 leaves behind — no terminal registry line, and a row
     log that ends after generation 0's G row plus a torn fragment of
     the next row *)
  let dir = fresh_dir () in
  let d1 = Daemon.start ~jobs:2 ~dir () in
  Fun.protect
    ~finally:(fun () -> Daemon.stop d1)
    (fun () -> ignore (submit_collect dir tune_spec));
  let read_lines path =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let write path s =
    Out_channel.with_open_bin path (fun oc -> output_string oc s)
  in
  let unlines ls = String.concat "" (List.map (fun l -> l ^ "\n") ls) in
  let reg = Filename.concat dir "jobs.reg" in
  write reg
    (unlines
       (List.filter
          (fun l -> not (String.starts_with ~prefix:"D\t" l))
          (read_lines reg)));
  let ckpt = Filename.concat dir "job-1.ckpt" in
  let rec split_after_g0 kept = function
    | l :: rest when String.starts_with ~prefix:"G\t0\t" l ->
      (List.rev (l :: kept), rest)
    | l :: rest -> split_after_g0 (l :: kept) rest
    | [] -> Alcotest.fail "row log has no generation-0 G row"
  in
  (match split_after_g0 [] (read_lines ckpt) with
  | kept, next :: _ ->
    write ckpt (unlines kept ^ String.sub next 0 (String.length next / 2))
  | _, [] -> Alcotest.fail "the job ran a single generation");
  (* restart over the same state dir: the registry re-enqueues job-1 and
     its checkpoint replays the finished generations *)
  let d2 = Daemon.start ~jobs:2 ~dir () in
  Fun.protect ~finally:(fun () -> Daemon.stop d2) @@ fun () ->
  let rows = ref [] in
  let outcome =
    match
      Client.with_connection (sock_of dir) (fun c ->
          match Client.send c (Proto.Watch "job-1") with
          | Error e -> Error e
          | Ok () ->
            let rec loop () =
              match Client.recv c with
              | Ok (Proto.Row { data; _ }) ->
                rows := data :: !rows;
                loop ()
              | Ok (Proto.Done { summary; _ }) -> Ok (`Done summary)
              | Ok (Proto.Err { msg }) -> Ok (`Failed msg)
              | Ok _ -> loop ()
              | Error `Eof -> Error "eof mid-watch"
              | Error (`Bad m) -> Error m
            in
            loop ())
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "watch failed: %s" e
  in
  (match outcome with
  | `Done summary ->
    Alcotest.(check bool) "summary reports replayed evaluations" true
      (Option.value ~default:0
         (Zkopt_report.Json.int_member "resumed" summary)
      > 0)
  | `Failed m -> Alcotest.failf "resumed tune failed: %s" m);
  (* set-of-lines comparison, as in the sweep restart test: the watcher
     may attach after the restarted job already streamed its first
     replayed rows *)
  Alcotest.(check (slist string compare))
    "resumed rows byte-identical to uninterrupted run" ref_rows
    (List.rev !rows)

let tests =
  [
    Alcotest.test_case "expected_failure classifies by taxonomy" `Quick
      test_expected_failure_taxonomy;
    Alcotest.test_case "contrast mining scores best-camp motifs" `Quick
      test_contrast_scores;
    Alcotest.test_case "tuned profiles roundtrip through JSON" `Quick
      test_tuned_roundtrip;
    Alcotest.test_case "search rows byte-identical across jobs" `Slow
      test_search_rows_jobs_independent;
    Alcotest.test_case "search resumes from a sheared checkpoint" `Slow
      test_search_checkpoint_resume;
    Alcotest.test_case "service tune resumes byte-identically" `Slow
      test_service_restart_resumes_byte_identical;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        qcheck_operators_well_formed;
        qcheck_history_monotone;
        qcheck_pair_equals_subsequence;
        qcheck_pair_table_complete;
        qcheck_frequent_matches_bruteforce;
        qcheck_maximal_sound;
      ]
