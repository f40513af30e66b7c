(** Runs one workload through the public engines, checks every output,
    and, when traced, attributes the run's wall time to layers.

    A repeat is a cold pass followed by a warm pass over the caches the
    cold pass left: the same in-memory compile cache on [matrix] (a
    resubmitted job on a long-lived service), and a new cache over the
    cold pass's disk store on [levels] (a second [sweepall] on an
    unchanged tree).

    Tracing wraps the calls [Harness.run] makes through the backend
    records it is handed, so spans are recorded inside the real sweep.
    The IR work the harness does without such a record (build, link,
    passes, verify, fingerprint) is replayed serially afterwards through
    the same public calls, and the zkVM measure is split into decode,
    run and prove the same way.  A traced [levels] run also runs one
    traced [Autotune.search], which measures the tuner's layers. *)

open Zkopt_core
module H = Zkopt_harness.Harness
module Cell = Zkopt_harness.Cell
module Checkpoint = Zkopt_harness.Checkpoint
module A = Zkopt_autotune.Autotune
module Backend = Zkopt_backend.Backend
module Registry = Zkopt_backend.Registry
module Cache = Zkopt_exec.Cache
module Pool = Zkopt_exec.Pool
module Fingerprint = Zkopt_exec.Fingerprint
module Workload = Zkopt_workloads.Workload
module Pass = Zkopt_passes.Pass
module Catalog = Zkopt_passes.Catalog
module Machine = Zkopt_zkvm.Machine
module Stats = Zkopt_stats.Stats

(** An output that disagrees with its reference or with another repeat. *)
exception Mismatch of string

let fail fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt

let size = Workload.Quick

let now = Unix.gettimeofday

(* ---- files ----------------------------------------------------------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let file_size path = (Unix.stat path).Unix.st_size

(** Digest of the sorted rows of checkpoint or row-log files: equal
    digests mean the same rows, whatever order they were written in. *)
let rows_digest paths =
  List.concat_map read_lines paths
  |> List.filter (fun l -> l <> Checkpoint.version)
  |> List.sort compare |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* ---- set-up and references ------------------------------------------ *)

type env = {
  inp : Inputs.t;
  pool : Pool.t;
  backends : Backend.t list;
  workloads : Workload.t list;
  dir : string;  (** checkpoint files and the disk compile store *)
}

type cache = Backend.compiled Cache.t

let store env = Filename.concat env.dir "store"

(** The compile cache a cold pass starts from: in memory on [matrix],
    over the disk store on [levels]. *)
let open_cache env : cache =
  match env.inp.Inputs.workload with
  | Inputs.Matrix -> Cache.create ()
  | Inputs.Levels -> Cache.create ~dir:(store env) ()

(** What the system does before its first operation, bar opening the
    compile cache ({!open_cache}): check the suite registration, resolve
    backends and programs, start the pool.

    The pool has one worker domain, traced or not, so that the layers of
    a traced run explain the untraced one.  On a 2-core host two domains
    made [matrix] 26% slower and [levels] 40% faster, and spread cells/s
    and peak memory by up to 9% between runs; one pool for the whole run
    keeps peak memory within 4%, where a pool per sweep spread it by 8%. *)
let setup ~dir (inp : Inputs.t) : env =
  ignore (Zkopt_workloads.Suite.all ());
  Zkopt_valida.Vbackend.ensure ();
  let backends = List.map Registry.find inp.Inputs.backends in
  let workloads = List.map Workload.find inp.Inputs.programs in
  { inp; pool = Pool.create ~jobs:1; backends; workloads; dir }

(** The reference checksum of a program: the interpreter on the
    unoptimized, linked, verified module — no pass, codegen or backend
    of the system under test is involved. *)
let reference (w : Workload.t) : int64 =
  let m = w.Workload.build size in
  Zkopt_runtime.Runtime.link m;
  Zkopt_ir.Verify.check m;
  Zkopt_ir.Interp.checksum m

let references env =
  List.map (fun (w : Workload.t) -> (w.Workload.name, reference w)) env.workloads

(* ---- tracing --------------------------------------------------------- *)

type tracer = {
  sp : Spans.t;  (** attributed layers *)
  zk : Spans.t;  (** decode/run/prove: a breakdown of the measure spans *)
  mutable wall : float;  (** inside the traced engine calls *)
  mutable retired_zk : int;
  mutable retired_cpu : int;
  mutable applied : int;
  mutable changed : int;
  mutable minor : int;
  mutable major : int;
}

let tracer () =
  { sp = Spans.create (); zk = Spans.create (); wall = 0.0; retired_zk = 0;
    retired_cpu = 0; applied = 0; changed = 0; minor = 0; major = 0 }

(** Time an engine call; a traced call also counts its collections. *)
let engine_call tracer f =
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let v = f () in
  let wall = now () -. t0 in
  Option.iter
    (fun t ->
      let g1 = Gc.quick_stat () in
      t.wall <- t.wall +. wall;
      t.minor <- t.minor + g1.Gc.minor_collections - g0.Gc.minor_collections;
      t.major <- t.major + g1.Gc.major_collections - g0.Gc.major_collections)
    tracer;
  (v, wall)

let traced_backend sp (b : Backend.t) : Backend.t =
  let wrap (c : Backend.compiled) : Backend.compiled =
    let measure ~vm ?fault ?fuel ?sink () =
      let layer =
        if b.Backend.zk_native then "valida.measure_ms"
        else "zkvm." ^ vm ^ ".measure_ms"
      in
      Spans.time sp layer (fun () -> c.Backend.measure ~vm ?fault ?fuel ?sink ())
    in
    let measure_cpu =
      Option.map
        (fun run ?fuel ?sink () ->
          Spans.time sp "cpu.timing_ms" (fun () -> run ?fuel ?sink ()))
        c.Backend.measure_cpu
    in
    { c with Backend.measure; measure_cpu }
  in
  let compile_layer =
    if b.Backend.zk_native then "valida.compile_ms" else "riscv.codegen_ms"
  in
  {
    b with
    Backend.compile =
      (fun m -> wrap (Spans.time sp compile_layer (fun () -> b.Backend.compile m)));
    decode =
      (fun m s ->
        Option.map wrap
          (Spans.time sp "exec.cache_decode_ms" (fun () -> b.Backend.decode m s)));
  }

let run_pass t ~config name m =
  let changed =
    Spans.time t.sp ("passes." ^ name ^ "_ms") (fun () ->
        Pass.run_one ~config name m)
  in
  t.applied <- t.applied + 1;
  if changed then t.changed <- t.changed + 1

(** The pass list and configuration {!Profile.apply} runs. *)
let pipeline_of (p : Profile.t) : Pass.config * string list =
  match p with
  | Profile.Baseline -> (Pass.standard_config, [])
  | Profile.Single_pass n -> (Pass.standard_config, [ n ])
  | Profile.Level l -> (Catalog.level_config l, Catalog.pipeline l)
  | Profile.Custom (ps, config) -> (config, ps)
  | Profile.Tuned { passes; _ } -> (Pass.standard_config, passes)
  | Profile.Zkvm_o3 -> (Pass.zkvm_config, Catalog.zkvm_o3_pipeline)

let with_cpu = function
  | Profile.Baseline | Profile.Single_pass _ -> true
  | _ -> false

(** One cell's IR half, call for call as {!Measure.prepare_ir} makes it,
    followed by the fingerprint the harness takes. *)
let replay_ir t (w : Workload.t) profile =
  let m = Spans.time t.sp "workloads.build_ms" (fun () -> w.Workload.build size) in
  Spans.time t.sp "runtime.link_ms" (fun () -> Zkopt_runtime.Runtime.link m);
  let config, passes = pipeline_of profile in
  List.iter (fun p -> run_pass t ~config p m) passes;
  run_pass t ~config:Pass.standard_config "globaldce" m;
  Spans.time t.sp "ir.verify_ms" (fun () -> Zkopt_ir.Verify.check m);
  ignore (Spans.time t.sp "exec.fingerprint_ms" (fun () -> Fingerprint.of_modul m));
  m

(** Split each RV32 measurement of a cell into the machine's decode,
    run and the prover model. *)
let replay_zk t env profile m =
  match List.filter (fun (b : Backend.t) -> not b.Backend.zk_native) env.backends with
  | [] -> ()
  | rv ->
    let c = Measure.compile_ir m in
    List.iteri
      (fun i (b : Backend.t) ->
        let cfg = Zkopt_zkvm.Config.by_name b.Backend.name in
        let code =
          Spans.time t.zk "zkvm.decode_ms" (fun () ->
              Machine.decode cfg c.Measure.codegen c.Measure.modul)
        in
        let r = Spans.time t.zk "zkvm.run_ms" (fun () -> Machine.run code) in
        ignore (Spans.time t.zk "zkvm.prove_ms" (fun () -> Zkopt_zkvm.Prover.prove cfg r));
        t.retired_zk <- t.retired_zk + r.Machine.retired;
        if i = 0 && with_cpu profile then
          t.retired_cpu <- t.retired_cpu + r.Machine.retired)
      rv

let replay_sweep t env =
  List.iter
    (fun w ->
      List.iter
        (fun profile -> replay_zk t env profile (replay_ir t w profile))
        env.inp.Inputs.profiles)
    env.workloads

(* ---- passes ---------------------------------------------------------- *)

type pass = {
  wall : float;  (** seconds inside [Harness.run] *)
  attempted : int;  (** cells *)
  digest : string;  (** {!rows_digest} of the pass's checkpoints *)
  bytes : int;  (** checkpoint bytes written by the harness *)
  retries : int;
  stats : Cache.stats;  (** compile-cache traffic *)
  guest : (string * float) list;  (** cycle ratios the pass measured *)
}

(** Geomean over programs of risc0 cycles under [num] over [den], when
    the sweep measured both profiles of every program. *)
let cycle_ratio env points ~num ~den =
  let cycles prog prof =
    Option.map
      (fun p -> float_of_int (Cell.zk p "risc0").Measure.cycles)
      (Hashtbl.find_opt points (prog, prof))
  in
  let ratios =
    List.map
      (fun p ->
        match (cycles p num, cycles p den) with
        | Some a, Some b -> Some (a /. b)
        | _ -> None)
      env.inp.Inputs.programs
  in
  if List.for_all Option.is_some ratios then
    Some (exp (Stats.mean (List.map (fun r -> log (Option.get r)) ratios)))
  else None

(** Every cell must come back measured: a quarantined cell is one the
    harness's own oracles rejected (backends disagreeing within a cell,
    a profile changing the baseline's result) or could not measure.
    Every measured exit value must equal the reference. *)
let check_sweep env refs (o : H.outcome) =
  (match o.H.quarantined with
   | [] -> ()
   | errs ->
     fail "%d quarantined cells, first %s" (List.length errs)
       (Zkopt_harness.Error.to_string (List.hd errs)));
  let expected = List.length env.workloads * List.length env.inp.Inputs.profiles in
  let nb = List.length env.backends in
  Hashtbl.iter
    (fun _ (p : Cell.point) ->
      let want = List.assoc p.Cell.program refs in
      if List.length p.Cell.zk <> nb then
        fail "%s/%s: %d backend results, expected %d" p.Cell.program
          p.Cell.profile (List.length p.Cell.zk) nb;
      List.iter
        (fun (z : Measure.zk_metrics) ->
          if not (Int64.equal z.Measure.exit_value want) then
            fail "%s/%s on %s: exit value %Lx, reference %Lx" p.Cell.program
              p.Cell.profile z.Measure.vm z.Measure.exit_value want)
        p.Cell.zk;
      Option.iter
        (fun (c : Measure.cpu_metrics) ->
          if not (Int64.equal c.Measure.cpu_exit_value want) then
            fail "%s/%s on the CPU model: exit value %Lx, reference %Lx"
              p.Cell.program p.Cell.profile c.Measure.cpu_exit_value want)
        p.Cell.cpu)
    o.H.points;
  let got = Hashtbl.length o.H.points in
  if got <> expected then fail "sweep measured %d of %d cells" got expected

let add_stats (a : Cache.stats) (b : Cache.stats) : Cache.stats =
  {
    Cache.hits = a.Cache.hits + b.Cache.hits;
    disk_hits = a.Cache.disk_hits + b.Cache.disk_hits;
    misses = a.Cache.misses + b.Cache.misses;
    evictions = a.Cache.evictions + b.Cache.evictions;
  }

let sweep_pass ?tracer env refs ~cache ~ckpt =
  rm_rf ckpt;
  let backends =
    match tracer with
    | None -> env.backends
    | Some t -> List.map (traced_backend t.sp) env.backends
  in
  let cfg =
    {
      (H.default ~size) with
      H.programs = Some env.inp.Inputs.programs;
      profiles = Some env.inp.Inputs.profiles;
      checkpoint = Some ckpt;
      resume = false;
      cache = Some cache;
      backends = Some backends;
      pool = Some env.pool;
    }
  in
  let o, wall = engine_call tracer (fun () -> H.run cfg) in
  check_sweep env refs o;
  Option.iter (fun t -> replay_sweep t env) tracer;
  let ratio name ~num ~den =
    Option.map (fun r -> (name, r)) (cycle_ratio env o.H.points ~num ~den)
  in
  {
    wall;
    attempted = Hashtbl.length o.H.points;
    digest = rows_digest [ ckpt ];
    bytes = file_size ckpt;
    retries = o.H.retries;
    stats = o.H.cache_stats;
    guest =
      List.filter_map Fun.id
        [ ratio "o3_cycle_ratio" ~num:"-O3" ~den:"baseline";
          ratio "zkvm_o3_cycle_ratio" ~num:"-O3(zkvm)" ~den:"-O3" ];
  }

(* ---- the tuner ------------------------------------------------------ *)

(** The search a traced [levels] run adds, as [zkbench tune sha256
    --iterations 240 --jobs 1] runs it: risc0 cycles, pruning on, an
    artifact cache shared by the genomes, a row log. *)
let tune_program = "sha256"

let tune_iterations = 240

(** Per-layer values of one traced search.  Spans wrap the target's
    build and measure closures; everything else the search does (prefix
    passes, clones, fingerprints, breeding, the row log) is its
    remainder, [autotune.other_ms]. *)
let tune_layers env : (string * float) list =
  let w = Workload.find tune_program in
  let build () = w.Workload.build size in
  let sp = Spans.create () in
  let target =
    A.backend_target ~cache:(Cache.create ()) ~program:tune_program ~build
      (Registry.find "risc0")
  in
  let target =
    {
      target with
      A.build = (fun () -> Spans.time sp "autotune.build_ms" target.A.build);
      measure =
        (fun ~fp m -> Spans.time sp "autotune.measure_ms" (fun () -> target.A.measure ~fp m));
    }
  in
  let cfg =
    {
      (A.default ~seed:1 ~population:16 ~iterations:tune_iterations ()) with
      A.prefix_cache = Some (Cache.create ~capacity:1024 ());
      checkpoint = Some (Filename.concat env.dir "tune.rows");
    }
  in
  let t0 = now () in
  let o = A.search cfg ~targets:[ target ] in
  let wall = now () -. t0 in
  let r =
    match o.A.result with
    | Some r -> r
    | None -> fail "tune %s: no generation completed" tune_program
  in
  (* the winner must still compute what the unoptimized program does *)
  if r.A.best.A.fitness < max_int then begin
    let m =
      Measure.prepare_ir ~build (Profile.Custom (r.A.best.A.genome, Pass.standard_config))
    in
    let got = Zkopt_ir.Interp.checksum m and want = reference w in
    if not (Int64.equal got want) then
      fail "tune %s: winning genome %s interprets to %Lx, reference %Lx" tune_program
        (String.concat "," r.A.best.A.genome) got want
  end;
  let cs = o.A.cache_stats in
  let p = cs.A.prefix in
  let lookups = p.Cache.hits + p.Cache.disk_hits + p.Cache.misses in
  [ ("autotune.build_ms", 1000.0 *. Spans.self sp "autotune.build_ms");
    ("autotune.measure_ms", 1000.0 *. Spans.self sp "autotune.measure_ms");
    ("autotune.other_ms", 1000.0 *. (wall -. Spans.attributed sp));
    ("autotune.measured", float_of_int cs.A.measured);
    ("autotune.deduped", float_of_int cs.A.dedup_hits);
    ("autotune.pruned", float_of_int cs.A.pruned);
    ("autotune.prefix_hit_frac",
      if lookups = 0 then 0.0 else float_of_int p.Cache.hits /. float_of_int lookups) ]

type repeat = { cold : pass; warm : pass }

let repeat ?tracer env refs : repeat =
  let ckpt name = Filename.concat env.dir name in
  rm_rf (store env);
  let cache = open_cache env in
  let cold = sweep_pass ?tracer env refs ~cache ~ckpt:(ckpt "cold.ckpt") in
  let warm_cache =
    match env.inp.Inputs.workload with
    | Inputs.Matrix -> cache
    | Inputs.Levels -> open_cache env
  in
  let warm = sweep_pass ?tracer env refs ~cache:warm_cache ~ckpt:(ckpt "warm.ckpt") in
  { cold; warm }

(* ---- metrics --------------------------------------------------------- *)

(** The end-to-end metrics with their units. *)
let end_to_end =
  [ ("setup_s", "s"); ("cells_per_s", "1/s"); ("warm_cells_per_s", "1/s");
    ("peak_rss_mb", "MB") ]

(** Every per-layer metric, in report order, with its unit, the
    end-to-end metric it should move, and the workload where it should
    move it (in parentheses: where it should move little or not at all). *)
let layers : (string * string * string) list =
  let row name unit moves = (name, unit, moves) in
  let passes =
    List.map
      (fun p -> row ("passes." ^ p ^ "_ms") "ms" "cells_per_s, warm_cells_per_s on levels (matrix ~8%)")
      [ "licm"; "adce"; "simplifycfg"; "instcombine"; "sccp"; "gvn"; "early-cse";
        "loop-unroll"; "globaldce" ]
  in
  [ row "cpu.timing_ms" "ms" "cells_per_s on matrix (levels ~8%)";
    row "cpu.minstr_per_s" "Minstr/s" "cells_per_s on matrix (levels ~8%)";
    row "passes.pipeline_ms" "ms" "cells_per_s, warm_cells_per_s on levels (matrix ~8%)" ]
  @ passes
  @ [ row "passes.applied" "count" "cells_per_s, warm_cells_per_s on levels (matrix ~8%)";
      row "passes.changed_frac" "frac" "cells_per_s, warm_cells_per_s on levels (matrix ~8%)";
      row "exec.cache_hit_frac" "frac" "warm_cells_per_s on levels (matrix cold: no change)";
      row "exec.cache_disk_hits" "count" "warm_cells_per_s on levels (matrix: none)";
      row "exec.cache_decode_ms" "ms" "warm_cells_per_s on levels (matrix: none)";
      row "exec.cache_evictions" "count" "warm_cells_per_s on levels (matrix: none)";
      row "exec.fingerprint_ms" "ms" "cells_per_s on matrix, levels (small)";
      row "riscv.codegen_ms" "ms" "cells_per_s on levels (warm passes: little)";
      row "riscv.codegen_calls" "count" "cells_per_s on levels (warm passes: little)";
      row "zkvm.risc0.measure_ms" "ms" "cells_per_s on levels, matrix";
      row "zkvm.sp1.measure_ms" "ms" "cells_per_s on levels, matrix";
      row "zkvm.decode_ms" "ms" "cells_per_s on levels, matrix";
      row "zkvm.run_ms" "ms" "cells_per_s on levels, matrix";
      row "zkvm.prove_ms" "ms" "cells_per_s on levels, matrix";
      row "zkvm.minstr_per_s" "Minstr/s" "cells_per_s on levels, matrix";
      row "valida.compile_ms" "ms" "cells_per_s on levels only";
      row "valida.measure_ms" "ms" "cells_per_s on levels only";
      row "workloads.build_ms" "ms" "cells_per_s on matrix, levels, small";
      row "runtime.link_ms" "ms" "cells_per_s on matrix, levels, small";
      row "ir.verify_ms" "ms" "cells_per_s on matrix, levels, small";
      row "harness.other_ms" "ms" "cells_per_s on matrix";
      row "harness.checkpoint_bytes" "bytes" "cells_per_s on matrix";
      row "harness.retries" "count" "cells_per_s on matrix";
      row "harness.quarantined" "count" "cells_per_s on matrix";
      row "autotune.build_ms" "ms" "tuner evals/s: traced levels search only";
      row "autotune.measure_ms" "ms" "tuner evals/s: traced levels search only";
      row "autotune.other_ms" "ms" "tuner evals/s: traced levels search only";
      row "autotune.measured" "count" "tuner evals/s: traced levels search only";
      row "autotune.deduped" "count" "tuner evals/s: traced levels search only";
      row "autotune.pruned" "count" "tuner evals/s: traced levels search only";
      row "autotune.prefix_hit_frac" "frac" "tuner evals/s: traced levels search only";
      row "gc.minor_collections" "count" "peak_rss_mb, cells_per_s on matrix";
      row "gc.major_collections" "count" "peak_rss_mb, cells_per_s on matrix";
      row "gc.heap_top_mb" "MB" "peak_rss_mb, cells_per_s on matrix";
      row "guest.o3_cycle_ratio" "ratio" "none: guest code quality on levels, matrix";
      row "guest.zkvm_o3_cycle_ratio" "ratio" "none: guest code quality on levels";
      row "trace.wall_ms" "ms" "traced engine wall time";
      row "trace.untraced_wall_ms" "ms" "median untraced engine wall time";
      row "trace.overhead_ms" "ms" "traced minus untraced wall time" ]

(** Per-layer values of a traced repeat, with [tune] the values of the
    traced search where one ran (the tuner's rows read 0 elsewhere).
    Layer self times plus [harness.other_ms] equal [trace.wall_ms] by
    construction. *)
let layer_values t (r : repeat) ~untraced_wall ~tune : (string * float) list =
  let passes = [ r.cold; r.warm ] in
  let ms s = 1000.0 *. s in
  let self name = ms (Spans.self t.sp name) in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 passes in
  let stats = List.fold_left (fun acc p -> add_stats acc p.stats) Cache.zero_stats passes in
  let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let rate instrs secs = if secs <= 0.0 then 0.0 else float_of_int instrs /. 1e6 /. secs in
  let pipeline =
    Hashtbl.fold
      (fun name s acc ->
        if String.starts_with ~prefix:"passes." name then acc +. s else acc)
      t.sp.Spans.self 0.0
  in
  let guest name = Option.value ~default:0.0 (List.assoc_opt name r.cold.guest) in
  let lookups = stats.Cache.hits + stats.Cache.disk_hits + stats.Cache.misses in
  let values =
    [ ("cpu.minstr_per_s", rate t.retired_cpu (Spans.self t.sp "cpu.timing_ms"));
      ("passes.pipeline_ms", ms pipeline);
      ("passes.applied", float_of_int t.applied);
      ("passes.changed_frac", frac t.changed t.applied);
      ("exec.cache_hit_frac", frac (stats.Cache.hits + stats.Cache.disk_hits) lookups);
      ("exec.cache_disk_hits", float_of_int stats.Cache.disk_hits);
      ("exec.cache_evictions", float_of_int stats.Cache.evictions);
      ("riscv.codegen_calls", float_of_int (Spans.calls t.sp "riscv.codegen_ms"));
      ("zkvm.decode_ms", ms (Spans.self t.zk "zkvm.decode_ms"));
      ("zkvm.run_ms", ms (Spans.self t.zk "zkvm.run_ms"));
      ("zkvm.prove_ms", ms (Spans.self t.zk "zkvm.prove_ms"));
      ("zkvm.minstr_per_s", rate t.retired_zk (Spans.self t.zk "zkvm.run_ms"));
      ("harness.other_ms", ms (t.wall -. Spans.attributed t.sp));
      ("harness.checkpoint_bytes", float_of_int (sum (fun p -> p.bytes)));
      ("harness.retries", float_of_int (sum (fun p -> p.retries)));
      (* any quarantined cell fails the run, so a reported run reads 0 *)
      ("harness.quarantined", 0.0);
      ("gc.minor_collections", float_of_int t.minor);
      ("gc.major_collections", float_of_int t.major);
      ("gc.heap_top_mb",
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. 1048576.0);
      ("guest.o3_cycle_ratio", guest "o3_cycle_ratio");
      ("guest.zkvm_o3_cycle_ratio", guest "zkvm_o3_cycle_ratio");
      ("trace.wall_ms", ms t.wall);
      ("trace.untraced_wall_ms", ms untraced_wall);
      ("trace.overhead_ms", ms (t.wall -. untraced_wall)) ]
    @ tune
  in
  List.map
    (fun (name, _, _) ->
      let v =
        match List.assoc_opt name values with
        | Some v -> v
        | None when String.starts_with ~prefix:"autotune." name -> 0.0
        | None -> self name
      in
      (name, v))
    layers
