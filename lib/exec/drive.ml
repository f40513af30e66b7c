let with_pool ~jobs pool f =
  match pool with
  | Some _ -> f pool
  | None when jobs <= 1 -> f None
  | None ->
    let p = Pool.create ~jobs in
    Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f (Some p))

let map pool f xs =
  match pool with
  | None -> List.map f xs
  | Some p ->
    let xs = Array.of_list xs in
    let out = Array.make (Array.length xs) None in
    Array.iteri (fun i x -> Pool.submit p (fun () -> out.(i) <- Some (f x))) xs;
    Pool.wait p;
    (* wait returned without raising: every slot is filled *)
    Array.to_list (Array.map Option.get out)

type 'r task = { keys : string list; run : unit -> 'r list }

type 'r config = {
  encode : 'r -> string;
  decode : string -> 'r option;
  key : 'r -> string;
  checkpoint : string option;
  header : string option;
  fresh : bool;
  limit : int option;
  jobs : int;
  pool : Pool.t option;
  stop : unit -> bool;
  on_row : 'r -> string -> unit;
}

type 'r outcome = {
  rows : 'r list;
  replayed : int;
  ran : int;
  completed : bool;
}

(* A task's place in the emission order.  [Rows] carries each row with
   its log line; [live] rows go to the log, replayed ones only to the
   hook. *)
type 'r slot =
  | Pending
  | Hole
  | Rows of { rows : ('r * string) list; live : bool }

let pending = function Pending -> true | Hole | Rows _ -> false

let run (cfg : 'r config) (plan : 'r task list list) : 'r outcome =
  (* logged rows by key, keep-last *)
  let logged = Hashtbl.create 64 in
  (match cfg.checkpoint with
  | Some path when not cfg.fresh ->
    Rowlog.load path ~decode:(fun line ->
        Option.map (fun r -> (r, line)) (cfg.decode line))
    |> List.iter (fun ((r, _) as row) -> Hashtbl.replace logged (cfg.key r) row)
  | _ -> ());
  let log =
    Option.map (Rowlog.open_ ?header:cfg.header ~fresh:cfg.fresh) cfg.checkpoint
  in
  (* [mu] guards the counters and the current wave's slots; emission
     happens under it, so rows reach [on_row] one at a time *)
  let mu = Mutex.create () in
  let emitted = ref [] and replayed = ref 0 and ran = ref 0 and holes = ref 0 in
  let budget = ref (Option.value cfg.limit ~default:max_int) in
  (* a live row whose line the log already holds (a task cut off
     between its rows) is not written twice *)
  let unlogged r line =
    match Hashtbl.find_opt logged (cfg.key r) with
    | Some (_, l) -> not (String.equal l line)
    | None -> true
  in
  let emit = function
    | Pending | Hole -> ()
    | Rows { rows; live } ->
      List.iter
        (fun (r, line) ->
          if live && unlogged r line then
            Option.iter (fun l -> Rowlog.append l line) log;
          cfg.on_row r line;
          emitted := r :: !emitted)
        rows
  in
  let wave pool tasks =
    let slot (t : 'r task) =
      match List.map (Hashtbl.find_opt logged) t.keys with
      | found when t.keys <> [] && List.for_all Option.is_some found ->
        incr replayed;
        Rows { rows = List.map Option.get found; live = false }
      | _ when !budget > 0 ->
        decr budget;
        Pending
      | _ ->
        incr holes;
        Hole
    in
    let tasks = Array.of_list tasks in
    let slots = Array.map slot tasks in
    let next = ref 0 in
    (* emit the finished prefix; called with [mu] held *)
    let advance () =
      while !next < Array.length slots && not (pending slots.(!next)) do
        emit slots.(!next);
        incr next
      done
    in
    let finish i s =
      Mutex.protect mu (fun () ->
          (match s with Hole -> incr holes | _ -> incr ran);
          slots.(i) <- s;
          advance ())
    in
    let live i =
      if cfg.stop () then finish i Hole
      else
        let rows = List.map (fun r -> (r, cfg.encode r)) (tasks.(i).run ()) in
        finish i (Rows { rows; live = true })
    in
    Mutex.protect mu advance;
    let todo =
      List.filter (fun i -> pending slots.(i))
        (List.init (Array.length slots) Fun.id)
    in
    match map pool live todo with
    | _ -> ()
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (* the pool is quiescent: log what finished, skipping the holes *)
      Mutex.protect mu (fun () ->
          for i = !next to Array.length slots - 1 do
            emit slots.(i)
          done);
      Printexc.raise_with_backtrace e bt
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Rowlog.close log)
    (fun () ->
      with_pool ~jobs:cfg.jobs cfg.pool (fun pool ->
          List.iter (wave pool) plan));
  {
    rows = List.rev !emitted;
    replayed = !replayed;
    ran = !ran;
    completed = !holes = 0;
  }
