(** The sweep checkpoint's row codec.

    Completed points stream to a {!Zkopt_exec.Rowlog} one line each
    under the {!version} header; a resumed sweep loads the rows, skips
    already-done cells, and appends the rest.  The codec is an exact
    round trip — floats are written in hexadecimal ([%h]) notation — so
    a killed-and-resumed sweep reproduces the uninterrupted run byte for
    byte.

    v2 rows carry a backend count followed by that many metric groups
    (a point measures an arbitrary backend list, not a fixed pair).
    v1 rows — which had exactly two unlabeled groups — fail the count
    parse and are skipped, so resuming over an old checkpoint simply
    re-measures those cells instead of mis-decoding them. *)

open Zkopt_core

let version = "zkopt-ckpt-v2"

let encode_zk (z : Measure.zk_metrics) : string =
  String.concat "\t"
    [
      z.Measure.vm;
      string_of_int z.Measure.cycles;
      Printf.sprintf "%h" z.Measure.exec_time_s;
      Printf.sprintf "%h" z.Measure.prove_time_s;
      string_of_int z.Measure.segments;
      string_of_int z.Measure.paging_cycles;
      string_of_int z.Measure.page_ins;
      string_of_int z.Measure.page_outs;
      string_of_int z.Measure.loads;
      string_of_int z.Measure.stores;
      Printf.sprintf "%Lx" z.Measure.exit_value;
    ]

let encode_cpu (c : Measure.cpu_metrics) : string =
  String.concat "\t"
    [
      Printf.sprintf "%h" c.Measure.cpu_cycles;
      Printf.sprintf "%h" c.Measure.cpu_time_s;
      string_of_int c.Measure.mispredicts;
      string_of_int c.Measure.cache_misses;
      Printf.sprintf "%Lx" c.Measure.cpu_exit_value;
    ]

let encode_point (p : Cell.point) : string =
  String.concat "\t"
    ([ p.Cell.program; p.Cell.suite; p.Cell.profile ]
    @ [ string_of_int (List.length p.Cell.zk) ]
    @ List.map encode_zk p.Cell.zk
    @ [
        (match p.Cell.cpu with
        | None -> "-"
        | Some c -> "cpu\t" ^ encode_cpu c);
      ])

(* field counts: 3 header + 1 count + 11 per zk + 1 "-" | 1 "cpu" + 5 *)

let ( let* ) = Option.bind

let hex64 s = Int64.of_string_opt ("0x" ^ s)

let decode_zk fields =
  match fields with
  | [ vm; cycles; exec; prove; segs; paging; pins; pouts; loads; stores; ev ]
    ->
    let* cycles = int_of_string_opt cycles in
    let* exec_time_s = float_of_string_opt exec in
    let* prove_time_s = float_of_string_opt prove in
    let* segments = int_of_string_opt segs in
    let* paging_cycles = int_of_string_opt paging in
    let* page_ins = int_of_string_opt pins in
    let* page_outs = int_of_string_opt pouts in
    let* loads = int_of_string_opt loads in
    let* stores = int_of_string_opt stores in
    let* exit_value = hex64 ev in
    Some
      {
        Measure.vm;
        cycles;
        exec_time_s;
        prove_time_s;
        segments;
        paging_cycles;
        page_ins;
        page_outs;
        loads;
        stores;
        exit_value;
      }
  | _ -> None

let decode_cpu fields =
  match fields with
  | [ cycles; time; mis; misses; ev ] ->
    let* cpu_cycles = float_of_string_opt cycles in
    let* cpu_time_s = float_of_string_opt time in
    let* mispredicts = int_of_string_opt mis in
    let* cache_misses = int_of_string_opt misses in
    let* cpu_exit_value = hex64 ev in
    Some
      {
        Measure.cpu_cycles;
        cpu_time_s;
        mispredicts;
        cache_misses;
        cpu_exit_value;
      }
  | _ -> None

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
        let* z = decode_zk (take 11 rest) in
        groups (k - 1) (drop 11 rest) (z :: acc)
    in
    let* n = int_of_string_opt count in
    let* zk, rest = if n > 0 then groups n rest [] else None in
    let* cpu =
      match rest with
      | [ "-" ] -> Some None
      | "cpu" :: fields -> Option.map Option.some (decode_cpu fields)
      | _ -> None
    in
    Some { Cell.program; suite; profile; zk; cpu }
  | _ -> None
