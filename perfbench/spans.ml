(** Layer spans recorded by the benchmark around calls into the system.

    A span names the layer a call belongs to.  Spans nest: a span opened
    while another is open is its child, and a layer's self time is its
    spans' duration minus the time their children cover.  Self times of
    all layers therefore add up to the total time covered by top-level
    spans, which is what lets a traced run state its unattributed
    remainder exactly.

    One recorder serves one domain at a time: the traced run executes on
    a single worker domain, so the open-span stack is never shared. *)

type frame = { name : string; start : float; mutable child : float }

type t = {
  clock : unit -> float;
  mutable stack : frame list;
  self : (string, float) Hashtbl.t;  (** seconds *)
  calls : (string, int) Hashtbl.t;
}

let create ?(clock = Unix.gettimeofday) () =
  { clock; stack = []; self = Hashtbl.create 64; calls = Hashtbl.create 64 }

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

let close t fr =
  let d = t.clock () -. fr.start in
  (match t.stack with _ :: rest -> t.stack <- rest | [] -> ());
  add t.self fr.name (d -. fr.child);
  Hashtbl.replace t.calls fr.name
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.calls fr.name));
  match t.stack with parent :: _ -> parent.child <- parent.child +. d | [] -> ()

(** [time t layer f] runs [f] inside a span of [layer]. *)
let time t name f =
  let fr = { name; start = t.clock (); child = 0.0 } in
  t.stack <- fr :: t.stack;
  match f () with
  | v ->
    close t fr;
    v
  | exception e ->
    close t fr;
    raise e

(** Self time of [layer] in seconds (0 when it never ran). *)
let self t name = Option.value ~default:0.0 (Hashtbl.find_opt t.self name)

let calls t name = Option.value ~default:0 (Hashtbl.find_opt t.calls name)

(** Sum of every layer's self time: the time the spans attribute. *)
let attributed t = Hashtbl.fold (fun _ s acc -> acc +. s) t.self 0.0
