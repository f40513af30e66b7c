(** Append-only row logs: the one on-disk framing every engine's
    checkpoint shares (sweep, fuzz campaign, autotune search, settlement
    sweep and the service's job registry).

    A log is a text file of rows, one per line.  A row counts only once
    its terminating ['\n'] is on disk, so a kill at any byte offset
    loses at most the row being written and never corrupts an earlier
    one: {!load} ignores an unterminated last line and {!open_} cuts it
    off before the first append.  Row codecs stay with their engines;
    this module never looks inside a line. *)

type t

(** The rows of the log at [path] that [decode] accepts, in file order.
    A missing file has no rows; lines that do not decode (a header,
    foreign text) are skipped, and so is an unterminated last line. *)
val load : string -> decode:(string -> 'a option) -> 'a list

(** Open the log at [path] for appending, creating it if needed.
    [fresh:true] truncates it; [fresh:false] keeps its whole lines and
    cuts an unterminated last line.  [header] is written as the first
    line only when the file is new or left empty. *)
val open_ : ?header:string -> fresh:bool -> string -> t

(** Write [line] plus ['\n'] as one flushed write under the log's mutex,
    so concurrent writers never interleave inside a row.  Raises
    [Invalid_argument] if [line] contains a newline. *)
val append : t -> string -> unit

val close : t -> unit
