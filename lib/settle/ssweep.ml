(** The settlement sweep: price a (program x profile x backend) matrix
    end-to-end and stream one {!Settle} row per cell.

    Each (program x profile) cell is one {!Zkopt_exec.Drive} task — the
    optimized module is prepared once and every backend prices it, with
    compiled artifacts shared through the content-addressed cache per
    codegen family — and rows are emitted in plan order, so the stream
    (and the checkpoint built from it) is byte-identical at any [jobs]
    count.

    The checkpoint is a headerless {!Zkopt_exec.Rowlog} of
    {!Settle.row_of_report} rows.  A run over an existing checkpoint
    replays every cell whose rows are all there, streaming them like
    live rows, and prices the rest.  To start over, delete the file
    (what [zkbench settle --fresh] does). *)

module Backend = Zkopt_backend.Backend
module Measure = Zkopt_core.Measure
module Profile = Zkopt_core.Profile
module Pool = Zkopt_exec.Pool
module Drive = Zkopt_exec.Drive
module Cache = Zkopt_exec.Cache
module Fingerprint = Zkopt_exec.Fingerprint

type config = {
  programs : (string * (unit -> Zkopt_ir.Modul.t)) list;
      (** (name, fresh-module builder) pairs, sweep order *)
  profiles : (string * Profile.t) list;  (** (name, profile), sweep order *)
  backends : Backend.t list;  (** pricing columns, row order per cell *)
  jobs : int;
  pool : Pool.t option;  (** run over this shared pool instead *)
  cache : Backend.compiled Cache.t option;  (** shared artifact cache *)
  arity : int option;  (** aggregation fan-in *)
  weights : Settle.weights;
  fuel : int option;
  checkpoint : string option;
  on_row : string -> unit;  (** every row, replayed and live, in order *)
  stop : unit -> bool;  (** polled per cell; [true] drains the sweep *)
}

let default ?(jobs = 1) () : config =
  {
    programs = [];
    profiles = [];
    backends = [];
    jobs;
    pool = None;
    cache = None;
    arity = None;
    weights = Settle.default_weights;
    fuel = None;
    checkpoint = None;
    on_row = ignore;
    stop = (fun () -> false);
  }

type outcome = {
  rows : string list;  (** every row of the sweep, in order (incl. replays) *)
  cells : int;  (** (program, profile) cells priced live this run *)
  replayed : int;  (** cells replayed from the checkpoint *)
  completed : bool;  (** false iff [stop] drained the sweep early *)
}

(* ---- one cell -------------------------------------------------------- *)

(* A row's identity in the checkpoint: (program, profile, backend). *)
let key ~program ~profile backend =
  String.concat "\t" [ program; profile; backend ]

(* Price every backend over one prepared module; (key, row) pairs in
   backend order. *)
let price_cell (cfg : config) ~(build : unit -> Zkopt_ir.Modul.t)
    ~(program : string) ~(profile_name : string) (profile : Profile.t) :
    (string * string) list =
  let m = Measure.prepare_ir ~build profile in
  let fp = Fingerprint.of_modul m in
  List.map
    (fun (b : Backend.t) ->
      let c = Backend.compile_cached ?cache:cfg.cache b ~fp (Lazy.from_val m) in
      let r = c.Backend.measure ~vm:b.Backend.name ?fuel:cfg.fuel () in
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
  let task (program, build) (pname, profile) =
    {
      Drive.keys =
        List.map
          (fun (b : Backend.t) -> key ~program ~profile:pname b.Backend.name)
          cfg.backends;
      run =
        (fun () -> price_cell cfg ~build ~program ~profile_name:pname profile);
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
      [ List.concat_map (fun p -> List.map (task p) cfg.profiles) cfg.programs ]
  in
  {
    rows = List.map snd o.Drive.rows;
    cells = o.Drive.ran;
    replayed = o.Drive.replayed;
    completed = o.Drive.completed;
  }
