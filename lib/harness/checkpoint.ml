(** The sweep checkpoint's row codec.

    Completed points stream to a {!Zkopt_exec.Rowlog} one line each
    under the {!version} header; a resumed sweep loads the rows, skips
    already-done cells, and appends the rest.  The metric groups are
    {!Measure}'s field codec joined with tabs, an exact round trip —
    floats are written in hexadecimal ([%h]) notation — so a
    killed-and-resumed sweep reproduces the uninterrupted run byte for
    byte.

    v2 rows carry a backend count followed by that many metric groups
    (a point measures an arbitrary backend list, not a fixed pair).
    v1 rows — which had exactly two unlabeled groups — fail the count
    parse and are skipped, so resuming over an old checkpoint simply
    re-measures those cells instead of mis-decoding them. *)

open Zkopt_core

let version = "zkopt-ckpt-v2"

let encode_point (p : Cell.point) : string =
  let cpu =
    match p.Cell.cpu with
    | None -> [ "-" ]
    | Some c -> "cpu" :: Measure.cpu_fields c
  in
  String.concat "\t"
    ([ p.Cell.program; p.Cell.suite; p.Cell.profile;
       string_of_int (List.length p.Cell.zk) ]
    @ List.concat_map Measure.zk_fields p.Cell.zk
    @ cpu)

(* field counts: 3 header + 1 count + 11 per zk + 1 "-" | 1 "cpu" + 5 *)

let ( let* ) = Option.bind

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let rec drop n l =
  if n = 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

(** Total: [None] for a header, garbage, or a v1 row; never raises.  A
    row cut inside its final exit-value field still decodes (to a wrong
    value), which is why {!Zkopt_exec.Rowlog} drops unterminated lines. *)
let decode_point (line : string) : Cell.point option =
  match String.split_on_char '\t' line with
  | program :: suite :: profile :: count :: rest ->
    let rec groups k rest acc =
      if k = 0 then Some (List.rev acc, rest)
      else
        let* z = Measure.zk_of_fields (take 11 rest) in
        groups (k - 1) (drop 11 rest) (z :: acc)
    in
    let* n = int_of_string_opt count in
    let* zk, rest = if n > 0 then groups n rest [] else None in
    let* cpu =
      match rest with
      | [ "-" ] -> Some None
      | "cpu" :: fields -> Option.map Option.some (Measure.cpu_of_fields fields)
      | _ -> None
    in
    Some { Cell.program; suite; profile; zk; cpu }
  | _ -> None
