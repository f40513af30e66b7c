(** The settlement sweep: price a (program x profile x backend) matrix
    end-to-end and stream one {!Settle} row per cell.

    Each (program x profile) cell is one {!Zkopt_exec.Drive} task — the
    cell's module digest is resolved through the harness's input key
    ({!Zkopt_harness.Harness.with_module}), so its pass pipeline runs at
    most once and not at all on a warm cache, and every backend prices
    the artifact the compile cache holds for its codegen family — and
    rows are emitted in plan order, so the stream (and the checkpoint
    built from it) is byte-identical at any [jobs] count.

    The checkpoint is a headerless {!Zkopt_exec.Rowlog} of
    {!Settle.row_of_report} rows.  A run over an existing checkpoint
    replays every cell whose rows are all there, streaming them like
    live rows, and prices the rest.  To start over, delete the file
    (what [zkbench settle --fresh] does). *)

module Backend = Zkopt_backend.Backend
module Profile = Zkopt_core.Profile
module Pool = Zkopt_exec.Pool
module Drive = Zkopt_exec.Drive
module Cache = Zkopt_exec.Cache
module Harness = Zkopt_harness.Harness
module Workload = Zkopt_workloads.Workload

type config = {
  size : Workload.size;
  programs : string list;  (** suite program names, sweep order *)
  profiles : Profile.t list;  (** sweep order *)
  backends : Backend.t list;  (** pricing columns, row order per cell *)
  jobs : int;
  pool : Pool.t option;  (** run over this shared pool instead *)
  cache : Backend.compiled Cache.t option;
      (** shared compile cache; [None] = a private one per run *)
  arity : int option;  (** aggregation fan-in *)
  weights : Settle.weights;
  checkpoint : string option;
  on_row : string -> unit;  (** every row, replayed and live, in order *)
  stop : unit -> bool;  (** polled per cell; [true] drains the sweep *)
}

let default ~size ?(jobs = 1) () : config =
  {
    size;
    programs = [];
    profiles = [];
    backends = [];
    jobs;
    pool = None;
    cache = None;
    arity = None;
    weights = Settle.default_weights;
    checkpoint = None;
    on_row = ignore;
    stop = (fun () -> false);
  }

type outcome = {
  rows : string list;  (** every row of the sweep, in order (incl. replays) *)
  cells : int;  (** (program, profile) cells priced live this run *)
  replayed : int;  (** cells replayed from the checkpoint *)
  completed : bool;  (** false iff [stop] drained the sweep early *)
  prepared : int;  (** pass pipelines run: none on a warm cache *)
}

(* ---- one cell -------------------------------------------------------- *)

(* A row's identity in the checkpoint: (program, profile, backend). *)
let key ~program ~profile backend =
  String.concat "\t" [ program; profile; backend ]

(* Price every backend over the cell's module, resolved through the
   compile cache's input key; (key, row) pairs in backend order. *)
let price_cell (cfg : config) cache ~prepared (w : Workload.t)
    (profile : Profile.t) : (string * string) list =
  let program = w.Workload.name and profile_name = Profile.name profile in
  Harness.with_module ~prepared cache ~size:cfg.size w profile
  @@ fun ~fp m ->
  List.map
    (fun (b : Backend.t) ->
      let c = Backend.compile_cached ~cache b ~fp m in
      let r = c.Backend.measure ~vm:b.Backend.name () in
      (match r.Backend.accounting with
      | Ok () -> ()
      | Error msg ->
        failwith
          (Printf.sprintf "accounting violation pricing %s/%s on %s: %s"
             program profile_name b.Backend.name msg));
      ( key ~program ~profile:profile_name b.Backend.name,
        Settle.row_of_report ~program ~profile:profile_name
          (Settle.price ?arity:cfg.arity ~weights:cfg.weights
             ~backend:b.Backend.name r) ))
    cfg.backends

(* ---- the sweep ------------------------------------------------------- *)

let run (cfg : config) : outcome =
  let cache = match cfg.cache with Some c -> c | None -> Cache.create () in
  let prepared = Atomic.make 0 in
  let programs = List.map Workload.find cfg.programs in
  let task (w : Workload.t) profile =
    let program = w.Workload.name and pname = Profile.name profile in
    {
      Drive.keys =
        List.map
          (fun (b : Backend.t) -> key ~program ~profile:pname b.Backend.name)
          cfg.backends;
      run = (fun () -> price_cell cfg cache ~prepared w profile);
    }
  in
  let o =
    Drive.run
      {
        Drive.encode = snd;
        decode =
          (fun row ->
            Option.map
              (fun (program, profile, r) ->
                (key ~program ~profile r.Settle.backend, row))
              (Settle.report_of_row row));
        key = fst;
        checkpoint = cfg.checkpoint;
        header = None;
        fresh = false;
        limit = None;
        jobs = cfg.jobs;
        pool = cfg.pool;
        stop = cfg.stop;
        on_row = (fun _ row -> cfg.on_row row);
      }
      [ List.concat_map (fun w -> List.map (task w) cfg.profiles) programs ]
  in
  {
    rows = List.map snd o.Drive.rows;
    cells = o.Drive.ran;
    replayed = o.Drive.replayed;
    completed = o.Drive.completed;
    prepared = Atomic.get prepared;
  }
