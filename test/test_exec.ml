(** Multicore executor tests: pool invariants over per-worker queues
    (exactly-once execution, sequential order at [jobs = 1], poison
    propagation), content-addressed cache properties (digest stability
    under {!Clone}, digest sensitivity to one-instruction edits,
    hit/compile metric equality), single-flight compilation, the LRU
    bound, the on-disk store (the first level's inputs log only, no
    artifact written or read back), the inputs log (round trip, a row
    with a flipped byte skipped), the row log's framing under a kill at every byte offset,
    and the engine run loop's plan-order emission. *)

open Zkopt_ir
open Zkopt_core
module Pool = Zkopt_exec.Pool
module Cache = Zkopt_exec.Cache
module Fingerprint = Zkopt_exec.Fingerprint
module B = Builder

(* ---- pool invariants ------------------------------------------------ *)

let test_pool_exactly_once () =
  (* every submitted task runs exactly once, at any worker count *)
  let rng = Random.State.make [| 0xE4EC |] in
  for _trial = 1 to 6 do
    let jobs = 1 + Random.State.int rng 8 in
    let n = 50 + Random.State.int rng 200 in
    let counts = Array.make n 0 in
    let mu = Mutex.create () in
    Pool.run ~jobs
      (List.init n (fun i () ->
           Mutex.lock mu;
           counts.(i) <- counts.(i) + 1;
           Mutex.unlock mu));
    Array.iteri
      (fun i c ->
        if c <> 1 then
          Alcotest.failf "task %d ran %d times under %d workers" i c jobs)
      counts
  done

let test_pool_sequential_order () =
  (* a 1-worker pool executes tasks in exact submission order *)
  let order = ref [] in
  let n = 100 in
  Pool.run ~jobs:1 (List.init n (fun i () -> order := i :: !order));
  Alcotest.(check (list int)) "submission order" (List.init n Fun.id)
    (List.rev !order)

let test_pool_poison () =
  (* the first task exception reaches the submitter through [wait], and
     queued tasks are dropped rather than silently continued *)
  let pool = Pool.create ~jobs:4 in
  let ran = Atomic.make 0 in
  for i = 0 to 99 do
    Pool.submit pool (fun () ->
        if i = 10 then failwith "poisoned";
        Atomic.incr ran)
  done;
  (match Pool.wait pool with
  | () -> Alcotest.fail "expected the task exception to re-raise"
  | exception Failure msg -> Alcotest.(check string) "which" "poisoned" msg);
  Pool.shutdown pool;
  Alcotest.(check bool) "queued tasks were dropped" true (Atomic.get ran < 100)

(* ---- digest properties ---------------------------------------------- *)

let prop_clone_digest_stable =
  QCheck.Test.make ~name:"Clone'd modules digest identically" ~count:15
    QCheck.(pair (int_range 1 100_000) (int_range 0 5))
    (fun (seed, lvl_idx) ->
      (* both pristine and post-pipeline modules: cloning preserves
         names, labels and register numbering, so the structural digest
         must not move *)
      let m = Randprog.generate ~seed () in
      let pristine =
        String.equal (Fingerprint.of_modul m)
          (Fingerprint.of_modul (Clone.modul m))
      in
      Zkopt_passes.Catalog.run_level
        (List.nth Zkopt_passes.Catalog.all_levels lvl_idx)
        m;
      pristine
      && String.equal (Fingerprint.of_modul m)
           (Fingerprint.of_modul (Clone.modul m)))

let prop_one_instr_digest_differs =
  QCheck.Test.make ~name:"one-instruction edit changes the digest" ~count:15
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let m = Randprog.generate ~seed () in
      let c = Clone.modul m in
      let f = List.hd c.Modul.funcs in
      let b = Func.entry f in
      let dst = Func.fresh_reg f in
      b.Block.instrs <-
        Instr.Mov { dst; ty = Ty.I32; src = Value.Imm 0L } :: b.Block.instrs;
      not (String.equal (Fingerprint.of_modul m) (Fingerprint.of_modul c)))

let prop_attr_digest_differs =
  QCheck.Test.make ~name:"attribute flip changes the digest" ~count:10
    QCheck.(int_range 1 100_000)
    (fun seed ->
      (* attrs steer late pipeline stages; they are digested explicitly *)
      let m = Randprog.generate ~seed () in
      let c = Clone.modul m in
      let f = List.hd c.Modul.funcs in
      f.Func.attrs.Func.no_inline <- not f.Func.attrs.Func.no_inline;
      not (String.equal (Fingerprint.of_modul m) (Fingerprint.of_modul c)))

(* The module encoding as the [Printf] printer wrote it: every digest,
   and so every compile-cache key, must keep these bytes. *)
let printf_encode (m : Modul.t) =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf (Fingerprint.schema ^ "\n");
  List.iter
    (fun (g : Modul.global) ->
      Buffer.add_string buf ("g " ^ g.Modul.gname);
      (match g.Modul.init with
       | Modul.Zero n -> Buffer.add_string buf (Printf.sprintf " zero %d" n)
       | Modul.Words ws ->
         Buffer.add_string buf " words";
         Array.iter (fun w -> Buffer.add_string buf (Printf.sprintf " %lx" w)) ws);
      Buffer.add_char buf '\n')
    m.Modul.globals;
  List.iter
    (fun (f : Func.t) ->
      let a = f.Func.attrs in
      Buffer.add_string buf (Zkopt_oracle.Ref_printer.func f);
      Buffer.add_string buf
        (Printf.sprintf "attrs %b %b %b\n" a.Func.always_inline a.Func.no_inline
           a.Func.internal))
    m.Modul.funcs;
  Buffer.contents buf

let prop_encoding_matches_printf =
  QCheck.Test.make ~name:"module encoding = the Printf encoding" ~count:30
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let m = Pin_modules.random seed in
      String.equal (Fingerprint.encode m) (printf_encode m))

let test_encoding_suite () =
  List.iter
    (fun (what, m) ->
      Alcotest.(check bool) what true
        (String.equal (Fingerprint.encode m) (printf_encode m)))
    (Lazy.force Pin_modules.suite)

(* [of_modul] digests every module a cold pass prepares: it must
   allocate under 40 words per instruction, counting blocks allocated on
   the major heap (the [Printf] printer took 177-220 minor words; a fresh
   buffer and a copy of it per call, 85.5 words on polybench-gemm -O3). *)
let test_fingerprint_allocation () =
  List.iter
    (fun (what, (m : Modul.t)) ->
      let words = Pin_modules.allocated_words (fun () -> Fingerprint.of_modul m) in
      let per = words /. float_of_int (Modul.instr_count m) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f words per instruction < 40" what per)
        true (per < 40.0))
    (Pin_modules.work_cells ())

(* ---- cache behavior -------------------------------------------------- *)

(* The cache is polymorphic; the tests use a closure-free artifact of
   pure data. *)
type artifact = { codegen : Zkopt_riscv.Codegen.t; static_instrs : int }

let compile_artifact m : artifact =
  let c = Measure.compile_ir m in
  { codegen = c.Measure.codegen; static_instrs = c.Measure.static_instrs }

let prop_cache_hit_matches_fresh_compile =
  QCheck.Test.make ~name:"cache hit executes identically to a fresh compile"
    ~count:6
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let build () = Randprog.generate ~seed () in
      let m = Measure.prepare_ir ~build Profile.Baseline in
      let digest = Fingerprint.of_modul m in
      let cache = Cache.create () in
      let miss =
        Cache.get_or_compile cache ~digest ~compile:(fun () ->
            compile_artifact m)
      in
      let hit =
        Cache.get_or_compile cache ~digest ~compile:(fun () ->
            QCheck.Test.fail_report "second lookup must not compile")
      in
      let fresh = Measure.compile_ir m in
      let run (art : artifact) =
        let c =
          {
            Measure.modul = m;
            codegen = art.codegen;
            static_instrs = art.static_instrs;
          }
        in
        Measure.run_zkvm Zkopt_zkvm.Config.risc0 c
      in
      let a = run miss
      and b = run hit
      and f =
        run
          {
            codegen = fresh.Measure.codegen;
            static_instrs = fresh.Measure.static_instrs;
          }
      in
      let s = Cache.stats cache in
      s.Cache.hits = 1 && s.Cache.misses = 1
      && a.Measure.cycles = b.Measure.cycles
      && a.Measure.cycles = f.Measure.cycles
      && Int64.equal a.Measure.exit_value f.Measure.exit_value)

let tiny_module () =
  let m = Modul.create () in
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let x = B.add b (B.imm 40) (B.imm 2) in
         B.ret b (Some x)));
  m

let test_cache_single_flight () =
  (* many domains asking for one digest: exactly one compile happens,
     everyone else blocks and picks up the result as a hit *)
  let m = Measure.prepare_ir ~build:tiny_module Profile.Baseline in
  let digest = Fingerprint.of_modul m in
  let cache = Cache.create () in
  let compiles = Atomic.make 0 in
  Pool.run ~jobs:4
    (List.init 8 (fun _ () ->
         ignore
           (Cache.get_or_compile cache ~digest ~compile:(fun () ->
                Atomic.incr compiles;
                Unix.sleepf 0.02;
                compile_artifact m))));
  Alcotest.(check int) "one compile" 1 (Atomic.get compiles);
  let s = Cache.stats cache in
  Alcotest.(check int) "seven hits" 7 s.Cache.hits;
  Alcotest.(check int) "one miss" 1 s.Cache.misses

let test_cache_lru_eviction () =
  let m = Measure.prepare_ir ~build:tiny_module Profile.Baseline in
  let art = compile_artifact m in
  let cache = Cache.create ~capacity:2 () in
  let get d = ignore (Cache.get_or_compile cache ~digest:d ~compile:(fun () -> art)) in
  get "d1";
  get "d2";
  get "d3" (* capacity 2: evicts d1, the least recently used *);
  get "d3" (* hit *);
  get "d1" (* miss again: it was evicted *);
  let s = Cache.stats cache in
  Alcotest.(check int) "evictions" 2 s.Cache.evictions;
  Alcotest.(check int) "hit on resident digest" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 4 s.Cache.misses

(* ---- first level: the inputs log ----------------------------------- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* [f] over a fresh temporary directory, removed afterwards *)
let with_temp_dir f =
  let d = Filename.temp_file "zkopt_store" "" in
  Sys.remove d;
  Fun.protect ~finally:(fun () -> if Sys.file_exists d then rm_rf d) (fun () -> f d)

let inputs_log dir =
  Filename.concat (Filename.concat dir Cache.namespace) "inputs.log"

(* A recorded input key survives into a fresh cache over the same
   store, and only through the log of this build's namespace; a later
   row for a key overrides an earlier one. *)
let test_inputs_log_roundtrip () =
  with_temp_dir @@ fun dir ->
  let c1 = Cache.create ~dir () in
  Alcotest.(check (option string)) "empty store" None (Cache.resolve c1 ~key:"k1");
  Cache.record c1 ~key:"k1" ~value:"d1";
  Cache.record c1 ~key:"k2" ~value:"d2";
  Cache.record c1 ~key:"k1" ~value:"d3";
  Alcotest.(check (option string)) "in memory" (Some "d3") (Cache.resolve c1 ~key:"k1");
  let c2 = Cache.create ~dir () in
  Alcotest.(check (option string)) "later row wins" (Some "d3") (Cache.resolve c2 ~key:"k1");
  Alcotest.(check (option string)) "other row" (Some "d2") (Cache.resolve c2 ~key:"k2");
  Alcotest.(check (option string)) "memory-only cache reads no log" None
    (Cache.resolve (Cache.create ()) ~key:"k1")

(* A cache over a disk store writes one file, its namespace's inputs
   log, and reads no artifact back: a second cache over the same store
   resolves the recorded key but compiles the artifact again. *)
let test_store_first_level_only () =
  with_temp_dir @@ fun dir ->
  let m = Measure.prepare_ir ~build:tiny_module Profile.Baseline in
  let digest = Fingerprint.of_modul m in
  let key = Fingerprint.of_pipeline ~salt:"program" [ "licm" ] in
  let compiles = ref 0 in
  let lookup c =
    ignore
      (Cache.get_or_compile c ~digest ~compile:(fun () ->
           incr compiles;
           compile_artifact m))
  in
  let c1 = Cache.create ~dir () in
  lookup c1;
  Cache.record c1 ~key ~value:digest;
  let listing d = List.sort compare (Array.to_list (Sys.readdir d)) in
  Alcotest.(check (list string)) "one namespace" [ Cache.namespace ] (listing dir);
  Alcotest.(check (list string)) "one file" [ "inputs.log" ]
    (listing (Filename.concat dir Cache.namespace));
  let c2 = Cache.create ~dir () in
  Alcotest.(check (option string)) "the key resolves" (Some digest)
    (Cache.resolve c2 ~key);
  lookup c2;
  Alcotest.(check int) "compiled once per cache" 2 !compiles;
  let s = Cache.stats c2 in
  Alcotest.(check (list int)) "hits, disk hits, misses" [ 0; 0; 1 ]
    [ s.Cache.hits; s.Cache.disk_hits; s.Cache.misses ]

(* Every single-byte flip of a one-row log, including its newline, makes
   the row unreadable: neither the original key nor whatever the flipped
   row now names resolves. *)
let test_inputs_log_flipped_byte () =
  with_temp_dir @@ fun dir ->
  let key = Fingerprint.of_pipeline ~salt:"program" [ "licm" ]
  and digest = Fingerprint.of_modul (Measure.prepare_ir ~build:tiny_module Profile.Baseline) in
  Cache.record (Cache.create ~dir ()) ~key ~value:digest;
  let path = inputs_log dir in
  let row = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check (option string)) "the intact row resolves" (Some digest)
    (Cache.resolve (Cache.create ~dir ()) ~key);
  String.iteri
    (fun i ch ->
      let flipped = Bytes.of_string row in
      Bytes.set flipped i (Char.chr (Char.code ch lxor 1));
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc flipped);
      let named = List.hd (String.split_on_char '\t' (Bytes.to_string flipped)) in
      let c = Cache.create ~dir () in
      List.iter
        (fun k ->
          match Cache.resolve c ~key:k with
          | None -> ()
          | Some d -> Alcotest.failf "byte %d flipped: %S resolves to %S" i k d)
        [ key; named ])
    row

(* ---- row log framing ------------------------------------------------ *)

module Rowlog = Zkopt_exec.Rowlog

(* A kill can land at any byte offset.  Shear a log there: [load] must
   return exactly the rows whose newline came before the cut; resuming
   and appending the missing rows must give back the full list, none
   fused or lost; a fresh open must keep only what it appends.  Decoding
   with [Option.some] tests the framing, not a codec (so a header shows
   up as a row). *)
let prop_rowlog_shear =
  let line =
    QCheck.Gen.(string_size ~gen:(char_range ' ' '~') (int_bound 10))
  in
  let lines n = QCheck.Gen.(list_size (int_bound n) line) in
  QCheck.Test.make ~name:"row log: shear at every byte, resume, fresh" ~count:40
    (QCheck.make
       ~print:QCheck.Print.(triple (option string) (list string) (list string))
       QCheck.Gen.(triple (opt line) (lines 8) (lines 3)))
    (fun (header, rows, extra) ->
      let path = Filename.temp_file "zkopt_rowlog" ".log" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      let write ~fresh rows =
        let log = Rowlog.open_ ?header ~fresh path in
        List.iter (Rowlog.append log) rows;
        Rowlog.close log
      in
      let load () = Rowlog.load path ~decode:Option.some in
      let all = Option.to_list header @ rows in
      write ~fresh:true rows;
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      let ended cut =
        let rec go pos = function
          | l :: tl when pos + String.length l + 1 <= cut ->
            l :: go (pos + String.length l + 1) tl
          | _ -> []
        in
        go 0 all
      in
      let hlen = List.length (Option.to_list header) in
      List.for_all
        (fun cut ->
          Out_channel.with_open_bin path (fun oc ->
              output_string oc (String.sub bytes 0 cut));
          let kept = ended cut in
          let sheared = load () = kept in
          write ~fresh:false
            (List.filteri (fun i _ -> i >= List.length kept - hlen) rows);
          let resumed = load () = all in
          write ~fresh:true extra;
          sheared && resumed && load () = Option.to_list header @ extra)
        (List.init (String.length bytes + 1) Fun.id))

(* ---- engine run loop ------------------------------------------------ *)

module Drive = Zkopt_exec.Drive

let drive_header = "drive-test"

let spin n =
  let r = ref 0 in
  for i = 1 to n do
    r := !r + i
  done;
  ignore (Sys.opaque_identity !r)

(* Synthetic tasks: task [i] spins for its work, then returns the rows
   "t<i>.<j>" for its row count; [on_run i] marks it finished and task
   [raise_at] fails instead. *)
let drive_plan ?raise_at ~on_run waves =
  let next = ref 0 in
  List.map
    (List.map (fun (nrows, work) ->
         let i = !next in
         incr next;
         let keys = List.init nrows (Printf.sprintf "t%d.%d" i) in
         {
           Drive.keys;
           run =
             (fun () ->
               spin work;
               if raise_at = Some i then failwith "task failed";
               on_run i;
               keys);
         }))
    waves

(* Run the loop over [waves] with a fresh, sequential, uninterrupted
   reference; then the same plan at [jobs], from a reference log cut
   at a row boundary, and with a drain after [stop_after] polls, at
   most [limit] live tasks and task [raise_at] failing.  The log must
   hold exactly the finished rows in plan order, the same bytes at
   every [jobs] and after a resume, and [on_row] must see every row
   once, in plan order. *)
let prop_drive_run =
  let task = QCheck.Gen.(pair (int_bound 3) (int_bound 50_000)) in
  let gen =
    QCheck.Gen.(
      tup6
        (list_size (int_range 1 3) (list_size (int_bound 6) task))
        (int_range 1 4) (opt (int_bound 8)) (opt (int_bound 12))
        (opt (int_bound 12)) nat)
  in
  let print (waves, jobs, stop_after, raise_at, limit, cut) =
    let opt = function Some n -> string_of_int n | None -> "-" in
    Printf.sprintf "waves=%s jobs=%d stop_after=%s raise_at=%s limit=%s cut=%d"
      (String.concat "|"
         (List.map
            (fun w ->
              String.concat ","
                (List.map (fun (n, work) -> Printf.sprintf "%d/%d" n work) w))
            waves))
      jobs (opt stop_after) (opt raise_at) (opt limit) cut
  in
  QCheck.Test.make ~name:"drive: plan-order rows at any jobs, cut, stop, raise"
    ~count:40 (QCheck.make ~print gen)
    (fun (waves, jobs, stop_after, raise_at, limit, cut) ->
      let path = Filename.temp_file "zkopt_drive" ".log" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      let bytes () = In_channel.with_open_bin path In_channel.input_all in
      let go ?(fresh = false) ?(stop = fun () -> false) ?limit ?raise_at
          ?(on_run = ignore) jobs =
        let seen = ref [] in
        let cfg =
          {
            Drive.encode = Fun.id;
            decode =
              (fun l ->
                if String.starts_with ~prefix:"t" l then Some l else None);
            key = Fun.id;
            checkpoint = Some path;
            header = Some drive_header;
            fresh;
            limit;
            jobs;
            pool = None;
            stop;
            on_row = (fun _ line -> seen := line :: !seen);
          }
        in
        let o = Drive.run cfg (drive_plan ?raise_at ~on_run waves) in
        (o, List.rev !seen)
      in
      let reference, rows =
        let o, seen = go ~fresh:true 1 in
        (bytes (), if seen = o.Drive.rows then o.Drive.rows else [ "!hook" ])
      in
      let o_j, seen_j = go ~fresh:true jobs in
      let same_at_jobs =
        bytes () = reference && seen_j = rows && o_j.Drive.completed
      in
      let lines = drive_header :: rows in
      let keep = cut mod (List.length lines + 1) in
      Out_channel.with_open_bin path (fun oc ->
          List.iteri
            (fun i l -> if i < keep then output_string oc (l ^ "\n"))
            lines);
      let o_r, seen_r = go jobs in
      let resumed =
        bytes () = reference && seen_r = rows
        && o_r.Drive.replayed + o_r.Drive.ran = List.length (List.concat waves)
      in
      let ntasks = List.length (List.concat waves) in
      let finished = Array.make ntasks false in
      let polls = Atomic.make 0 in
      let stop () =
        match stop_after with
        | Some k -> Atomic.fetch_and_add polls 1 >= k
        | None -> false
      in
      let outcome =
        match
          go ~fresh:true ~stop ?limit ?raise_at
            ~on_run:(fun i -> finished.(i) <- true)
            jobs
        with
        | o, seen -> Ok (o, seen)
        | exception Failure _ -> Error ()
      in
      let expected =
        List.filter
          (fun row ->
            Scanf.sscanf row "t%d.%d" (fun i _ -> finished.(i)))
          rows
      in
      let within_limit =
        Array.for_all Fun.id
          (Array.mapi
             (fun i f -> (not f) || i < Option.value limit ~default:max_int)
             finished)
      in
      let partial =
        Rowlog.load path ~decode:(fun l ->
            if l = drive_header then None else Some l)
        = expected
        && within_limit
        &&
        match outcome with
        | Ok (o, seen) ->
          let stopped =
            match stop_after with Some k -> Atomic.get polls > k | None -> false
          in
          seen = expected
          && o.Drive.completed
             = ((not stopped) && Option.value limit ~default:max_int >= ntasks)
        | Error () -> raise_at <> None
      in
      same_at_jobs && resumed && partial)

let tests =
  [
    Alcotest.test_case "pool runs each task exactly once" `Quick
      test_pool_exactly_once;
    Alcotest.test_case "1-worker pool preserves submission order" `Quick
      test_pool_sequential_order;
    Alcotest.test_case "task exception poisons the pool" `Quick test_pool_poison;
    Alcotest.test_case "cache single-flight compilation" `Quick
      test_cache_single_flight;
    Alcotest.test_case "cache LRU eviction bound" `Quick test_cache_lru_eviction;
    Alcotest.test_case "disk store keeps the first level only" `Quick
      test_store_first_level_only;
    Alcotest.test_case "inputs log roundtrip" `Quick test_inputs_log_roundtrip;
    Alcotest.test_case "inputs log skips a row with a flipped byte" `Quick
      test_inputs_log_flipped_byte;
    Alcotest.test_case "module encoding = the Printf encoding on the suite" `Quick
      test_encoding_suite;
    Alcotest.test_case "fingerprint allocates under 40 words per instruction"
      `Quick test_fingerprint_allocation;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_clone_digest_stable;
        prop_one_instr_digest_differs;
        prop_attr_digest_differs;
        prop_encoding_matches_printf;
        prop_cache_hit_matches_fresh_compile;
        prop_rowlog_shear;
        prop_drive_run;
      ]
