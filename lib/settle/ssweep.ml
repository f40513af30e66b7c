(** The settlement sweep: price a (program x profile x backend) matrix
    end-to-end and stream one {!Settle} row per cell.

    Cells parallelize over the domain pool at (program x profile)
    granularity — the optimized module is prepared once and every
    backend prices it, with compiled artifacts shared through the
    content-addressed cache per codegen family — while rows are emitted
    through a reorder buffer: a finished cell's rows are held until
    every earlier cell has emitted, so the stream (and the checkpoint
    built from it) is byte-identical at any [jobs] count.

    The checkpoint is a headerless {!Zkopt_exec.Rowlog} of
    {!Settle.row_of_report} rows.  A run over an existing checkpoint
    replays every cell whose rows are all there and prices the rest.
    To start over, delete the file (what [zkbench settle --fresh]
    does). *)

module Backend = Zkopt_backend.Backend
module Measure = Zkopt_core.Measure
module Profile = Zkopt_core.Profile
module Pool = Zkopt_exec.Pool
module Rowlog = Zkopt_exec.Rowlog
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
  on_row : (string -> unit) option;  (** live rows only, in order *)
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
    on_row = None;
    stop = (fun () -> false);
  }

type outcome = {
  rows : string list;  (** every row of the sweep, in order (incl. replays) *)
  cells : int;  (** (program, profile) cells priced live this run *)
  replayed : int;  (** cells replayed from the checkpoint *)
  completed : bool;  (** false iff [stop] drained the sweep early *)
}

(* ---- one cell -------------------------------------------------------- *)

(* Price every backend over one prepared module; rows in backend order. *)
let price_cell (cfg : config) ~(build : unit -> Zkopt_ir.Modul.t)
    ~(program : string) ~(profile_name : string) (profile : Profile.t) :
    string list =
  let m = Measure.prepare_ir ~build profile in
  let fp = Fingerprint.of_modul m in
  let compiled_for (b : Backend.t) =
    match cfg.cache with
    | None -> b.Backend.compile m
    | Some cache ->
      Cache.get_or_compile cache
        ~digest:(fp ^ "+" ^ b.Backend.schema)
        ~codec:
          {
            Cache.enc = (fun (c : Backend.compiled) -> c.Backend.encode ());
            dec = (fun s -> b.Backend.decode m s);
          }
        ~compile:(fun () -> b.Backend.compile m)
  in
  List.map
    (fun (b : Backend.t) ->
      let c = compiled_for b in
      let r = c.Backend.measure ~vm:b.Backend.name ?fuel:cfg.fuel () in
      (match r.Backend.accounting with
      | Ok () -> ()
      | Error msg ->
        failwith
          (Printf.sprintf "accounting violation pricing %s/%s on %s: %s"
             program profile_name b.Backend.name msg));
      Settle.row_of_report ~program ~profile:profile_name
        (Settle.price ?arity:cfg.arity ~weights:cfg.weights
           ~backend:b.Backend.name r))
    cfg.backends

(* ---- the sweep ------------------------------------------------------- *)

type slot =
  | Pending
  | Done of { rows : string list; fresh : bool }
      (** [fresh] rows append to the checkpoint and reach [on_row];
          replayed rows only re-enter the ordered stream *)
  | Drained

let run (cfg : config) : outcome =
  let cells =
    List.concat_map
      (fun (program, build) ->
        List.map
          (fun (pname, profile) -> (program, build, pname, profile))
          cfg.profiles)
      cfg.programs
  in
  (* complete rows keyed by (program, profile, backend), keep-last *)
  let replay =
    let keyed row =
      Option.map
        (fun (program, profile, r) -> ((program, profile, r.Settle.backend), row))
        (Settle.report_of_row row)
    in
    match cfg.checkpoint with
    | Some path -> Hashtbl.of_seq (List.to_seq (Rowlog.load path ~decode:keyed))
    | None -> Hashtbl.create 1
  in
  let replayed_rows (program, _, pname, _) =
    let rows =
      List.filter_map
        (fun (b : Backend.t) ->
          Hashtbl.find_opt replay (program, pname, b.Backend.name))
        cfg.backends
    in
    if List.length rows = List.length cfg.backends then Some rows else None
  in
  let log = Option.map (Rowlog.open_ ~fresh:false) cfg.checkpoint in
  let slots = Array.make (max 1 (List.length cells)) Pending in
  let mu = Mutex.create () in
  let watermark = ref 0 in
  let ordered = ref [] in
  let live = ref 0 and replayed = ref 0 and drained = ref false in
  (* emit the contiguous done-prefix; called with [mu] held *)
  let advance () =
    let n = List.length cells in
    let continue = ref true in
    while !continue && !watermark < n do
      match slots.(!watermark) with
      | Pending -> continue := false
      | Drained ->
        drained := true;
        continue := false
      | Done { rows; fresh } ->
        List.iter
          (fun row ->
            ordered := row :: !ordered;
            if fresh then begin
              Option.iter (fun l -> Rowlog.append l row) log;
              match cfg.on_row with Some f -> f row | None -> ()
            end)
          rows;
        incr watermark
    done
  in
  let finish i v =
    Mutex.lock mu;
    slots.(i) <- v;
    (match v with
    | Done { fresh = true; _ } -> incr live
    | Done { fresh = false; _ } -> incr replayed
    | _ -> ());
    advance ();
    Mutex.unlock mu
  in
  let task i ((program, build, pname, profile) as cell) () =
    match replayed_rows cell with
    | Some rows -> finish i (Done { rows; fresh = false })
    | None ->
      if cfg.stop () then finish i Drained
      else
        let rows = price_cell cfg ~build ~program ~profile_name:pname profile in
        finish i (Done { rows; fresh = true })
  in
  let owned, pool =
    match cfg.pool with
    | Some p -> (None, Some p)
    | None ->
      if cfg.jobs <= 1 then (None, None)
      else
        let p = Pool.create ~jobs:cfg.jobs in
        (Some p, Some p)
  in
  Fun.protect
    ~finally:(fun () ->
      (match owned with Some p -> Pool.shutdown p | None -> ());
      Option.iter Rowlog.close log)
    (fun () ->
      match pool with
      | None -> List.iteri (fun i c -> task i c ()) cells
      | Some p ->
        List.iteri (fun i c -> Pool.submit p (task i c)) cells;
        Pool.wait p);
  {
    rows = List.rev !ordered;
    cells = !live;
    replayed = !replayed;
    completed = not !drained;
  }
