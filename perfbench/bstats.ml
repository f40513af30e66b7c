(** Quartiles of benchmark repeats.

    [quartiles] reproduces Python's [statistics.quantiles(xs, n=4)]
    (the default "exclusive" method) exactly, so the spread printed here
    is the spread a reader computes from the same values in Python. *)

(** [(q1, q2, q3)]; a single value is its own quartiles. *)
let quartiles (xs : float list) : float * float * float =
  match List.sort compare xs with
  | [] -> invalid_arg "Bstats.quartiles: no values"
  | [ x ] -> (x, x, x)
  | sorted ->
    let a = Array.of_list sorted in
    let ld = Array.length a in
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)
