(** Two-bit saturating-counter branch predictor (per-PC table). *)

type t = {
  table : int array;     (* 0..3; >=2 predicts taken *)
  mask : int;
  mutable correct : int;
  mutable mispredicts : int;
}

let create ?(entries = 4096) () =
  { table = Array.make entries 1; mask = entries - 1; correct = 0; mispredicts = 0 }

(** Predict and update the branch at unsigned address [pc]; returns
    [true] if the prediction was correct. *)
let access t (pc : int) ~(taken : bool) : bool =
  let i = (pc lsr 2) land t.mask in
  let counter = t.table.(i) in
  let predicted = counter >= 2 in
  if taken then t.table.(i) <- (if counter < 3 then counter + 1 else 3)
  else t.table.(i) <- (if counter > 0 then counter - 1 else 0);
  if predicted = taken then begin
    t.correct <- t.correct + 1;
    true
  end
  else begin
    t.mispredicts <- t.mispredicts + 1;
    false
  end
