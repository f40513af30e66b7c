(** Parallel genetic autotuner over pass sequences (the paper's RQ2
    OpenTuner setup, at full budget).

    Genomes are pass-name sequences up to depth 20; fitness is the zkVM
    cycle count — cheap and strongly correlated with both execution and
    proving time (§4.1).  The search is generational: each generation
    breeds [population] children from the survivor pool (tournament
    selection, one-point crossover, insert/delete/replace/swap
    mutations), evaluates the whole batch in parallel with
    {!Zkopt_exec.Drive.map}, and merges results back in submission
    order.

    Three properties distinguish this engine from a naive GA loop:

    - {b Determinism independent of [jobs].}  The RNG stream is consumed
      only on the coordinating domain (breeding), never during
      evaluation; batch results come back in submission order, so
      survivor selection sees the same verdicts in the same order no
      matter how the pool interleaved the work.  A fixed seed therefore
      produces byte-identical checkpoint rows at any [--jobs].
    - {b Prefix-cached compilation.}  Applying a pipeline is
      left-to-right, so the module after [p1; p2; p3] extends the module
      after [p1; p2].  Partially-optimized modules are content-addressed
      by {!Zkopt_exec.Fingerprint.of_pipeline} (the digest of the target's
      linked, unoptimized module + pass prefix) in a shared
      {!Zkopt_exec.Cache}: crossover children that
      inherit a parent's prefix — the common case — skip straight to the
      first novel pass.  Measured scores are additionally recorded per
      (target, structural fingerprint), so a genome whose final module
      is structurally identical to one already measured costs nothing
      ([dedup]), and a genome whose already-scored {e prefix} is no
      better than the current worst survivor can be discarded without
      measuring ([prune] — a heuristic: a suffix could still help, so
      pruning trades a little search fidelity for a lot of budget).
    - {b Kill-safe checkpointing.}  Each generation appends one row per
      child plus a generation summary row; {!search} with
      [resume = true] replays completed generations from the row log
      (consuming the identical RNG stream) and resumes live evaluation
      at the first incomplete generation, so an interrupted run
      continues byte-identically. *)

open Zkopt_passes
module Pool = Zkopt_exec.Pool
module Drive = Zkopt_exec.Drive
module Rowlog = Zkopt_exec.Rowlog
module Cache = Zkopt_exec.Cache
module Fingerprint = Zkopt_exec.Fingerprint
module Error = Zkopt_harness.Error
module Backend = Zkopt_backend.Backend
module Modul = Zkopt_ir.Modul

type genome = string list

type individual = {
  genome : genome;
  fitness : int;  (* cycles; lower is better *)
}

type result = {
  best : individual;
  top5 : individual list;
  bottom5 : individual list;
  evaluations : int;
  history : int list;  (* best fitness per generation *)
}

let max_depth = 20

let gene_pool = Catalog.swept_passes

let random_gene rng = List.nth gene_pool (Random.State.int rng (List.length gene_pool))

let random_genome rng =
  let len = 1 + Random.State.int rng max_depth in
  List.init len (fun _ -> random_gene rng)

let mutate rng (g : genome) : genome =
  let g = Array.of_list g in
  let n = Array.length g in
  match Random.State.int rng 4 with
  | 0 when n < max_depth ->
    (* insert *)
    let pos = Random.State.int rng (n + 1) in
    Array.to_list (Array.concat [ Array.sub g 0 pos; [| random_gene rng |];
                                  Array.sub g pos (n - pos) ])
  | 1 when n > 1 ->
    (* delete *)
    let pos = Random.State.int rng n in
    Array.to_list (Array.append (Array.sub g 0 pos) (Array.sub g (pos + 1) (n - pos - 1)))
  | 2 ->
    (* replace *)
    let pos = Random.State.int rng n in
    g.(pos) <- random_gene rng;
    Array.to_list g
  | _ ->
    if n >= 2 then begin
      let i = Random.State.int rng n and j = Random.State.int rng n in
      let t = g.(i) in
      g.(i) <- g.(j);
      g.(j) <- t
    end;
    Array.to_list g

let crossover rng (a : genome) (b : genome) : genome =
  let a = Array.of_list a and b = Array.of_list b in
  let cut_a = Random.State.int rng (Array.length a + 1) in
  let cut_b = Random.State.int rng (Array.length b + 1) in
  let child =
    Array.to_list (Array.append (Array.sub a 0 cut_a)
                     (Array.sub b cut_b (Array.length b - cut_b)))
  in
  match child with
  | [] -> [ random_gene rng ]
  | c when List.length c > max_depth ->
    List.filteri (fun i _ -> i < max_depth) c
  | c -> c

(* ------------------------------------------------------------------ *)
(* Failure classification                                              *)
(* ------------------------------------------------------------------ *)

(** Is [e] a failure mode a pathological pass sequence is {e expected}
    to produce (fuel exhaustion, compile/lowering errors, traps,
    ill-formed IR)?  Those score [max_int] and the search moves on.
    Everything that indicates a bug in the toolchain itself — checksum
    divergence, accounting violations, assertion failures,
    [Stack_overflow], unclassified exceptions — must propagate: folding
    a miscompile into a bad fitness score would make the autotuner
    silently search {e around} soundness bugs. *)
let expected_failure (e : exn) : bool =
  match e with
  | Stack_overflow | Assert_failure _ | Out_of_memory -> false
  | e -> (
    match Error.classify e with
    | Error.Out_of_fuel _ | Error.Emulator_trap _ | Error.Decode_error _
    | Error.Asm_error _ | Error.Isel_unsupported _ | Error.Ill_formed _ ->
      true
    | Error.Miscompile _ | Error.Accounting_violation _ | Error.Uncaught _ ->
      false)

(* ------------------------------------------------------------------ *)
(* Objective closures                                                  *)
(* ------------------------------------------------------------------ *)

(** One measurement axis of the objective.  [tname] identifies the axis
    in score records and checkpoint rows; [build] returns a fresh
    unoptimized module, and the digest of its linked form salts the
    prefix cache (targets over the same module share partially-optimized
    modules even when they price on different backends, and the same
    program at another size shares nothing); [measure] receives a fully
    prepared (linked, optimized, pruned, verified) module plus its
    structural fingerprint and returns cycles. *)
type target = {
  tname : string;
  weight : float;  (** contribution to the combined fitness *)
  build : unit -> Modul.t;
  measure : fp:string -> Modul.t -> int;
}

(* Measure [m] on [b] through the artifact cache. *)
let measured ?fuel ?cache (b : Backend.t) ~fp m : Backend.measurement =
  let c = Backend.compile_cached ?cache b ~fp (Lazy.from_val m) in
  let r = c.Backend.measure ~vm:b.Backend.name ?fuel () in
  (match r.Backend.accounting with
  | Ok () -> ()
  | Error msg -> raise (Error.Accounting msg));
  r

(** A target pricing [program] on backend [b], optionally compiling
    through the shared artifact [cache] (keyed structurally, so two
    genomes producing identical modules share one compiled artifact).
    An accounting violation raises {!Error.Accounting} — a conservation
    bug is never a legitimate fitness. *)
let backend_target ?fuel ?cache ?(weight = 1.0) ~(program : string)
    ~(build : unit -> Modul.t) (b : Backend.t) : target =
  let measure ~fp m =
    (measured ?fuel ?cache b ~fp m).Backend.zk.Zkopt_core.Measure.cycles
  in
  {
    tname = program ^ "@" ^ b.Backend.name;
    weight;
    build;
    measure;
  }

(** A target pricing [program]'s full settlement cost on backend [b]:
    fitness is {!Zkopt_settle.Settle.report.settled_cost} (prover +
    aggregation + verification gas, integer micro-units) instead of raw
    cycles.  Same artifact-cache discipline as {!backend_target}, so the
    two objectives share compiled artifacts — a tune can be re-scored
    under either without recompiling. *)
let settled_target ?fuel ?cache ?(weight = 1.0) ?arity ?weights
    ~(program : string) ~(build : unit -> Modul.t) (b : Backend.t) : target =
  let base = backend_target ?fuel ?cache ~weight ~program ~build b in
  let measure ~fp m =
    (Zkopt_settle.Settle.price ?arity ?weights ~backend:b.Backend.name
       (measured ?fuel ?cache b ~fp m))
      .Zkopt_settle.Settle.settled_cost
  in
  { base with tname = program ^ "@" ^ b.Backend.name ^ "+settled"; measure }

(** The multi-workload objective: one target per workload on backend
    [b], weighted by the reciprocal of each workload's baseline cycle
    count (normalized to the mean baseline) so a sequence is scored by
    the {e cells-weighted} speedup it delivers across the set rather
    than by whichever workload happens to burn the most cycles. *)
let cells_weighted ?fuel ?cache (b : Backend.t)
    (workloads : (string * (unit -> Modul.t)) list) : target list =
  let raw =
    List.map
      (fun (program, build) -> backend_target ?fuel ?cache ~program ~build b)
      workloads
  in
  let baselines =
    List.map
      (fun t ->
        let m = t.build () in
        Zkopt_runtime.Runtime.link m;
        ignore (Pass.run_one "globaldce" m);
        Zkopt_ir.Verify.check m;
        float_of_int (t.measure ~fp:(Fingerprint.of_modul m) m))
      raw
  in
  let mean =
    List.fold_left ( +. ) 0.0 baselines
    /. float_of_int (max 1 (List.length baselines))
  in
  List.map2
    (fun t base ->
      { t with weight = (if base > 0.0 then mean /. base else 1.0) })
    raw baselines

(* ------------------------------------------------------------------ *)
(* Prefix-cached pipeline application                                  *)
(* ------------------------------------------------------------------ *)

(* [build]'s module, linked: the root every prefix extends. *)
let linked (build : unit -> Modul.t) : Modul.t =
  let m = build () in
  Zkopt_runtime.Runtime.link m;
  m

(** The prefix-cache salt of [t]: the digest of its linked, unoptimized
    module, which is all a prefix's result depends on besides the pass
    list.  A program name alone would let the same program at two sizes
    share modules. *)
let root_digest (t : target) : string = Fingerprint.of_modul (linked t.build)

(** The module after applying [List.rev rev_prefix] to a fresh linked
    build whose digest is [root], memoized per prefix in [cache].  Each
    extension clones the cached parent before running its one new pass,
    so cached modules are never mutated; recursion happens inside
    [get_or_compile], which is deadlock-free because digests shorten
    strictly toward the root (single-flight waits form a DAG).  Modules
    handed out by this function are shared — callers must
    {!Zkopt_ir.Clone} before mutating. *)
let rec module_at (cache : Modul.t Cache.t) ~(root : string)
    ~(build : unit -> Modul.t) (rev_prefix : string list) : Modul.t =
  let digest = Fingerprint.of_pipeline ~salt:root (List.rev rev_prefix) in
  Cache.get_or_compile cache ~digest ~compile:(fun () ->
      match rev_prefix with
      | [] -> linked build
      | p :: rest ->
        let m = Zkopt_ir.Clone.modul (module_at cache ~root ~build rest) in
        ignore (Pass.run_one ~config:Pass.standard_config p m);
        m)

(* ------------------------------------------------------------------ *)
(* Evaluation verdicts                                                 *)
(* ------------------------------------------------------------------ *)

(** One recorded measurement: target axis, structural fingerprint of the
    post-pipeline (pre-prune) module, cycles. *)
type score = { starget : string; sfp : string; scycles : int }

(** How one genome was scored: ['m']easured, ['d']eduped against
    recorded scores, ['p']runed from a prefix estimate, or ['f']ailed
    (expected failure on every path). *)
type verdict = { vkind : char; vfitness : int; vscores : score list }

(** Weighted combination of per-target cycles into one fitness.  Any
    failed axis fails the genome; saturates at [max_int] on overflow. *)
let combine (ws : (float * int) list) : int =
  if List.exists (fun (_, c) -> c = max_int) ws then max_int
  else
    let f =
      List.fold_left (fun acc (w, c) -> acc +. (w *. float_of_int c)) 0.0 ws
    in
    if Float.is_nan f || f >= float_of_int max_int then max_int
    else int_of_float (Float.round f)

(** Evaluate one genome against every target.  Pure reads of [scores]
    (frozen during a batch) plus prefix-cache traffic; safe to run from
    many domains at once, and deterministic per genome regardless of
    batch interleaving.  [root t] is {!root_digest}[ t]. *)
let eval_child ~(pcache : Modul.t Cache.t) ~(root : target -> string)
    ~(scores : (string * string, int) Hashtbl.t) ~(prune : bool)
    ~(threshold : int option) ~(targets : target list) (g : genome) : verdict
    =
  let rev = List.rev g in
  let prepared =
    List.map
      (fun t ->
        match module_at pcache ~root:(root t) ~build:t.build rev with
        | m -> Some (t, m, Fingerprint.of_modul m)
        | exception e when expected_failure e -> None)
      targets
  in
  if List.exists Option.is_none prepared then
    { vkind = 'f'; vfitness = max_int; vscores = [] }
  else
    let lookups =
      List.map
        (fun o ->
          let t, m, fp = Option.get o in
          (t, m, fp, Hashtbl.find_opt scores (t.tname, fp)))
        prepared
    in
    if List.for_all (fun (_, _, _, r) -> Option.is_some r) lookups then
      (* every axis already measured a structurally identical module *)
      let vscores =
        List.map
          (fun (t, _, fp, r) ->
            { starget = t.tname; sfp = fp; scycles = Option.get r })
          lookups
      in
      let fit =
        combine (List.map (fun (t, _, _, r) -> (t.weight, Option.get r)) lookups)
      in
      { vkind = 'd'; vfitness = fit; vscores }
    else
      let prune_estimate =
        match threshold with
        | Some th when prune ->
          (* estimate each unmeasured axis from its longest already-scored
             proper prefix; if every axis has an exact score or estimate
             and the combination is no better than the worst survivor,
             discard without measuring *)
          let est_for (t, _, _, recorded) =
            match recorded with
            | Some c -> Some c
            | None -> (
              let rec walk rp =
                let m = module_at pcache ~root:(root t) ~build:t.build rp in
                match
                  Hashtbl.find_opt scores (t.tname, Fingerprint.of_modul m)
                with
                | Some c -> Some c
                | None -> ( match rp with [] -> None | _ :: tl -> walk tl)
              in
              match rev with
              | [] -> None
              | _ :: tl -> ( try walk tl with e when expected_failure e -> None))
          in
          let ests = List.map est_for lookups in
          if List.for_all Option.is_some ests then
            let fit =
              combine
                (List.map2
                   (fun (t, _, _, _) e -> (t.weight, Option.get e))
                   lookups ests)
            in
            if fit >= th then Some fit else None
          else None
        | _ -> None
      in
      match prune_estimate with
      | Some fit -> { vkind = 'p'; vfitness = fit; vscores = [] }
      | None ->
        let vscores =
          List.map
            (fun (t, m, fp, recorded) ->
              match recorded with
              | Some c -> { starget = t.tname; sfp = fp; scycles = c }
              | None ->
                let c =
                  match
                    (* the cached module is shared: prune + verify +
                       measure on a private clone *)
                    let m' = Zkopt_ir.Clone.modul m in
                    ignore (Pass.run_one "globaldce" m');
                    Zkopt_ir.Verify.check m';
                    t.measure ~fp:(Fingerprint.of_modul m') m'
                  with
                  | c -> c
                  | exception e when expected_failure e -> max_int
                in
                { starget = t.tname; sfp = fp; scycles = c })
            lookups
        in
        let fit =
          combine
            (List.map2 (fun (t, _, _, _) s -> (t.weight, s.scycles)) lookups
               vscores)
        in
        { vkind = (if fit = max_int then 'f' else 'm'); vfitness = fit; vscores }

(* ------------------------------------------------------------------ *)
(* Checkpoint row codec                                                *)
(* ------------------------------------------------------------------ *)

(* One row per evaluated child:
     A \t gen \t idx \t kind \t fitness \t gene,gene,... \t scores \t .
   where scores is "-" or ";"-joined "tname=fp:cycles" entries, and the
   trailing "." detects torn tails.  One summary row per generation:
     G \t gen \t evals \t best \t .
   A generation without its G row is treated as never having run. *)

let row_of_child ~gen ~idx (g : genome) (v : verdict) : string =
  let details =
    match v.vscores with
    | [] -> "-"
    | ss ->
      String.concat ";"
        (List.map
           (fun s -> Printf.sprintf "%s=%s:%d" s.starget s.sfp s.scycles)
           ss)
  in
  Printf.sprintf "A\t%d\t%d\t%c\t%d\t%s\t%s\t." gen idx v.vkind v.vfitness
    (String.concat "," g) details

let row_of_generation ~gen ~evals ~best : string =
  Printf.sprintf "G\t%d\t%d\t%d\t." gen evals best

let ( let* ) = Option.bind

let parse_score part =
  match (String.index_opt part '=', String.rindex_opt part ':') with
  | Some ei, Some ci when ei < ci ->
    let* scycles =
      int_of_string_opt (String.sub part (ci + 1) (String.length part - ci - 1))
    in
    Some
      {
        starget = String.sub part 0 ei;
        sfp = String.sub part (ei + 1) (ci - ei - 1);
        scycles;
      }
  | _ -> None

(** Total: [None] for anything but a whole [A] row; never raises. *)
let parse_child_row (line : string) :
    (int * int * char * int * genome * score list) option =
  match String.split_on_char '\t' line with
  | [ "A"; gen; idx; kind; fitness; genome; details; "." ]
    when String.length kind = 1 ->
    let* scores =
      if String.equal details "-" then Some []
      else
        let parts = String.split_on_char ';' details in
        let scores = List.filter_map parse_score parts in
        if List.compare_lengths scores parts = 0 then Some scores else None
    in
    let* gen = int_of_string_opt gen in
    let* idx = int_of_string_opt idx in
    let* fitness = int_of_string_opt fitness in
    Some (gen, idx, kind.[0], fitness, String.split_on_char ',' genome, scores)
  | _ -> None

let parse_generation_row (line : string) : int option =
  match String.split_on_char '\t' line with
  | [ "G"; gen; _evals; _best; "." ] -> int_of_string_opt gen
  | _ -> None

(** Replay tables from a row log: completed generations (those with a
    [G] row) and child verdicts keyed by [(gen, idx)], keep-last. *)
let load_replay (path : string) :
    (int, unit) Hashtbl.t * (int * int, char * int * genome * score list) Hashtbl.t
    =
  let greplay = Hashtbl.create 16 in
  let areplay = Hashtbl.create 64 in
  Rowlog.load path ~decode:(fun line ->
      match parse_child_row line with
      | Some child -> Some (Either.Left child)
      | None -> Option.map Either.right (parse_generation_row line))
  |> List.iter (function
       | Either.Left (gen, idx, kind, fitness, genome, scores) ->
         Hashtbl.replace areplay (gen, idx) (kind, fitness, genome, scores)
       | Either.Right gen -> Hashtbl.replace greplay gen ());
  (greplay, areplay)

(* ------------------------------------------------------------------ *)
(* The search engine                                                   *)
(* ------------------------------------------------------------------ *)

type cache_stats = {
  prefix : Cache.stats;  (** prefix-module cache traffic during this run *)
  dedup_hits : int;  (** genomes scored entirely from recorded scores *)
  pruned : int;  (** genomes discarded from a prefix estimate *)
  measured : int;  (** genomes actually measured *)
  failed : int;  (** genomes that failed on every path *)
}

type outcome = {
  result : result option;  (** [None] iff stopped before any generation *)
  cache_stats : cache_stats;
  completed : bool;  (** false iff [stop] ended the search early *)
  resumed : int;  (** evaluations replayed from the checkpoint *)
}

type config = {
  seed : int;
  population : int;
  iterations : int;  (** total genome evaluations (the paper uses 1600) *)
  jobs : int;  (** worker domains when no [pool] is supplied *)
  pool : Pool.t option;  (** evaluate over this (shared, warm) pool *)
  prefix_cache : Modul.t Cache.t option;
      (** share partially-optimized modules across runs *)
  prune : bool;  (** enable prefix-estimate early exit *)
  checkpoint : string option;  (** row-log path *)
  resume : bool;  (** replay completed generations from the row log *)
  on_row : string -> unit;  (** every row, replayed and live, in order *)
  stop : unit -> bool;  (** polled at generation boundaries *)
}

let default ?(seed = 1) ?(population = 16) ?(iterations = 160) ?(jobs = 1) ()
    : config =
  {
    seed;
    population;
    iterations;
    jobs;
    pool = None;
    prefix_cache = None;
    prune = true;
    checkpoint = None;
    resume = false;
    on_row = ignore;
    stop = (fun () -> false);
  }

(** Run the full search engine over [targets] (see {!backend_target},
    {!cells_weighted}).  The coordinator breeds each generation from the
    RNG stream (consumed only here), evaluates the batch with
    {!Zkopt_exec.Drive.map}, and merges verdicts in index order, so the
    search is deterministic at a fixed seed for any [jobs] / [pool].
    With a [checkpoint] path, live rows are appended to it as they are
    emitted; with [resume], generations already completed in the log are
    replayed (same RNG stream, recorded verdicts, no evaluation) before
    live search resumes.  Without [resume] the log is truncated first. *)
let search (cfg : config) ~(targets : target list) : outcome =
  if targets = [] then invalid_arg "Autotune.search: no targets";
  let pcache =
    match cfg.prefix_cache with
    | Some c -> c
    | None -> Cache.create ~capacity:1024 ()
  in
  let stats0 = Cache.stats pcache in
  let roots = List.map (fun t -> (t.tname, root_digest t)) targets in
  let root t = List.assoc t.tname roots in
  (* (target, structural fingerprint) -> cycles; written only between
     batches, read freely during them *)
  let scores : (string * string, int) Hashtbl.t = Hashtbl.create 256 in
  let population = max 1 cfg.population and iterations = max 1 cfg.iterations in
  let rng = Random.State.make [| cfg.seed; 0x5eed |] in
  let greplay, areplay =
    match cfg.checkpoint with
    | Some path when cfg.resume -> load_replay path
    | _ -> (Hashtbl.create 1, Hashtbl.create 1)
  in
  let log = Option.map (Rowlog.open_ ~fresh:(not cfg.resume)) cfg.checkpoint in
  let emit ~live row =
    (match log with Some l when live -> Rowlog.append l row | _ -> ());
    cfg.on_row row
  in
  let ind_cmp a b = compare (a.fitness, a.genome) (b.fitness, b.genome) in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let pop = ref [] in  (* best-first survivors, length <= population *)
  let everyone = ref [] in
  let history = ref [] in
  let evals = ref 0 in
  let gen = ref 0 in
  let replayed = ref 0 in
  let dedup = ref 0 and pruned = ref 0 and measured = ref 0 and failed = ref 0 in
  let completed = ref true in
  let replay_active = ref true in
  let generation pool =
    let n = min population (iterations - !evals) in
    (* breed first, unconditionally: the RNG stream must advance the
       same way whether this generation replays or runs live *)
    let genomes =
      if !gen = 0 then begin
        let a = Array.make n [] in
        for i = 0 to n - 1 do
          a.(i) <- random_genome rng
        done;
        Array.to_list a
      end
      else begin
        let parr = Array.of_list !pop in
        let np = Array.length parr in
        let tournament () =
          let a = parr.(Random.State.int rng np)
          and b = parr.(Random.State.int rng np) in
          if a.fitness <= b.fitness then a else b
        in
        let a = Array.make n [] in
        for i = 0 to n - 1 do
          let p1 = tournament () and p2 = tournament () in
          let g = crossover rng p1.genome p2.genome in
          a.(i) <- (if Random.State.bool rng then mutate rng g else g)
        done;
        Array.to_list a
      end
    in
    let threshold =
      if !gen = 0 || List.length !pop < population then None
      else match List.rev !pop with w :: _ -> Some w.fitness | [] -> None
    in
    let can_replay =
      !replay_active
      && Hashtbl.mem greplay !gen
      && List.for_all Fun.id
           (List.mapi
              (fun i g ->
                match Hashtbl.find_opt areplay (!gen, i) with
                | Some (_, _, rg, _) -> rg = g
                | None -> false)
              genomes)
    in
    let verdicts =
      if can_replay then begin
        replayed := !replayed + n;
        List.mapi
          (fun i _ ->
            let kind, fitness, _, scores = Hashtbl.find areplay (!gen, i) in
            { vkind = kind; vfitness = fitness; vscores = scores })
          genomes
      end
      else begin
        replay_active := false;
        Drive.map pool
          (eval_child ~pcache ~root ~scores ~prune:cfg.prune ~threshold ~targets)
          genomes
      end
    in
    List.iter
      (fun v ->
        List.iter
          (fun s -> Hashtbl.replace scores (s.starget, s.sfp) s.scycles)
          v.vscores;
        match v.vkind with
        | 'd' -> incr dedup
        | 'p' -> incr pruned
        | 'f' -> incr failed
        | _ -> incr measured)
      verdicts;
    List.iteri
      (fun i (g, v) ->
        emit ~live:(not can_replay) (row_of_child ~gen:!gen ~idx:i g v))
      (List.combine genomes verdicts);
    evals := !evals + n;
    let children =
      List.map2 (fun g v -> { genome = g; fitness = v.vfitness }) genomes
        verdicts
    in
    everyone := children @ !everyone;
    pop := take population (List.sort ind_cmp (children @ !pop));
    let best = (List.hd !pop).fitness in
    history := best :: !history;
    emit ~live:(not can_replay)
      (row_of_generation ~gen:!gen ~evals:!evals ~best);
    incr gen
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Rowlog.close log)
    (fun () ->
      Drive.with_pool ~jobs:cfg.jobs cfg.pool (fun pool ->
          while !completed && !evals < iterations do
            if cfg.stop () then completed := false else generation pool
          done));
  let result =
    match !everyone with
    | [] -> None
    | all ->
      let all_sorted = List.sort ind_cmp all in
      Some
        {
          best = List.hd all_sorted;
          top5 = take 5 all_sorted;
          bottom5 =
            take 5
              (List.rev (List.filter (fun i -> i.fitness < max_int) all_sorted));
          evaluations = !evals;
          history = List.rev !history;
        }
  in
  {
    result;
    cache_stats =
      {
        prefix = Cache.sub_stats (Cache.stats pcache) stats0;
        dedup_hits = !dedup;
        pruned = !pruned;
        measured = !measured;
        failed = !failed;
      };
    completed = !completed;
    resumed = !replayed;
  }
