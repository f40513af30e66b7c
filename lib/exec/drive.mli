(** The one engine run loop.  The sweep harness, the fuzz campaign and
    the settlement sweep each hand {!run} a plan of tasks and a row
    codec; {!run} owns everything around the tasks: the worker pool,
    resume from the engine's {!Rowlog}, the [limit] and [stop] policy,
    and emission.  The autotuner keeps its own generation log and uses
    {!with_pool} and {!map} for its batches.

    Rows reach the hook and the log in plan order, whatever order the
    tasks finish in: a finished task's rows wait in a reorder buffer
    until every earlier task has finished or been skipped.  So a log is
    byte-identical at any [jobs], and a log cut at any row boundary
    resumes to the bytes of an uninterrupted run. *)

(** [with_pool ~jobs pool f] runs [f] over the caller's shared [pool]
    and never shuts it down.  Without one, [f None] runs inline when
    [jobs <= 1]; otherwise [f] gets a private pool of [jobs] domains,
    shut down when [f] returns or raises. *)
val with_pool : jobs:int -> Pool.t option -> (Pool.t option -> 'a) -> 'a

(** [map pool f xs] applies [f] to every element, on [pool] if given and
    inline otherwise.  Results come back in the order of [xs]; the first
    exception a task raises is re-raised. *)
val map : Pool.t option -> ('a -> 'b) -> 'a list -> 'b list

(** One unit of planned work. *)
type 'r task = {
  keys : string list;
      (** the keys of the rows [run] produces; a task whose keys are all
          in the log is replayed from it instead of run *)
  run : unit -> 'r list;
      (** compute the rows, in key order; fewer rows (a quarantined
          cell returns none) leave the missing keys to a later run *)
}

type 'r config = {
  encode : 'r -> string;  (** one log line, no newline *)
  decode : string -> 'r option;  (** total; [None] skips the line *)
  key : 'r -> string;  (** the key a decoded row answers *)
  checkpoint : string option;  (** the engine's log *)
  header : string option;  (** first line of a new log *)
  fresh : bool;  (** ignore and truncate the log instead of resuming *)
  limit : int option;  (** run at most this many tasks live *)
  jobs : int;  (** see {!with_pool} *)
  pool : Pool.t option;
  stop : unit -> bool;  (** polled before each live task starts *)
  on_row : 'r -> string -> unit;
      (** every replayed and live row with its log line, in plan order,
          one call at a time *)
}

type 'r outcome = {
  rows : 'r list;  (** every emitted row, replayed and live, plan order *)
  replayed : int;  (** tasks replayed from the log *)
  ran : int;  (** tasks run live to the end *)
  completed : bool;
      (** false iff [limit] or [stop] left a task undone *)
}

(** Run [plan], a list of waves: every row of a wave is emitted before
    the next wave starts.  The first [limit] tasks not in the log run
    live, in plan order; a skipped or stopped task leaves a hole in the
    emission, and a later run fills it.  Only live rows go to the log,
    and not when the log already holds the same line, so a log cut
    between one task's rows also resumes to the same bytes.  If a task
    raises, the rows of every finished task are still logged in plan
    order, the log is closed, and the exception re-raised. *)
val run : 'r config -> 'r task list list -> 'r outcome
