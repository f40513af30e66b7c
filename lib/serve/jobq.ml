(** Blocking priority queue for the sweep service's scheduler.

    A list kept sorted by priority, holding one [Stdlib.Queue] per
    priority: lower priorities pop first, and a push goes after every
    entry of equal or lower priority (at the back of its priority's
    queue), so within one priority entries pop in push order.  Two
    clients at the same priority are served first-come-first-served
    while an urgent job overtakes a backlog of bulk work.  A push walks
    the distinct priorities, not the entries.

    [pop] blocks until an entry is available or the queue is closed;
    [close] lets blocked and later [pop]s drain the remaining entries,
    then return [None], which is the drain signal.  All operations are
    safe from any thread or domain. *)

type 'a t = {
  mu : Mutex.t;
  nonempty : Condition.t;
  mutable entries : (int * 'a Queue.t) list;
      (** one non-empty queue per priority, in ascending priority *)
  mutable closed : bool;
}

let create () : _ t =
  {
    mu = Mutex.create ();
    nonempty = Condition.create ();
    entries = [];
    closed = false;
  }

(** Enqueue [v] at [priority] (lower pops sooner).  Raises
    [Invalid_argument] on a closed queue — submissions after a drain
    began are a caller bug. *)
let push t ~priority v =
  (* [v] goes after every entry of equal or lower priority *)
  let rec insert = function
    | (p, q) :: _ as l when p = priority ->
      Queue.push v q;
      l
    | ((p, _) as e) :: rest when p < priority -> e :: insert rest
    | rest -> (priority, Queue.of_seq (Seq.return v)) :: rest
  in
  Mutex.protect t.mu (fun () ->
      if t.closed then invalid_arg "Jobq.push: queue is closed";
      t.entries <- insert t.entries;
      Condition.signal t.nonempty)

(** Blocking pop: the next entry in (priority, FIFO) order, or [None]
    once the queue is closed and empty. *)
let pop t : 'a option =
  Mutex.protect t.mu (fun () ->
      while List.is_empty t.entries && not t.closed do
        Condition.wait t.nonempty t.mu
      done;
      match t.entries with
      | [] -> None
      | (_, q) :: rest ->
        let v = Queue.pop q in
        if Queue.is_empty q then t.entries <- rest;
        Some v)

let length t =
  Mutex.protect t.mu (fun () ->
      List.fold_left (fun n (_, q) -> n + Queue.length q) 0 t.entries)

(** Close the queue: blocked and future [pop]s drain the remaining
    entries and then return [None]. *)
let close t =
  Mutex.protect t.mu (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)
