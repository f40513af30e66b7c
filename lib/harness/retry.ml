(** Retry with escalating fuel — the repo's analog of timeout/backoff.

    A cell whose measurement runs out of fuel is retried with a doubled
    (by default) budget, up to [max_attempts] total attempts.
    Deterministic failures (traps, miscompiles, ill-formed IR, …) are
    never retried; they propagate on the first attempt.  Classification
    is structural ({!Error.retryable}), not string matching. *)

type policy = {
  max_attempts : int;  (** total attempts, including the first *)
  initial_fuel : int;  (** instruction budget for the first attempt *)
  growth : int;        (** fuel multiplier between attempts *)
}

let default =
  {
    max_attempts = 4;
    initial_fuel = Zkopt_riscv.Emulator.default_fuel;
    growth = 2;
  }

(** [run policy f] calls [f ~fuel] with escalating fuel until it either
    succeeds, fails deterministically, or exhausts [max_attempts].
    Returns the result and the number of attempts consumed. *)
let run (p : policy) (f : fuel:int -> 'a) : 'a * int =
  let rec go attempt fuel =
    match f ~fuel with
    | v -> (v, attempt)
    | exception e
      when Error.retryable (Error.classify e) && attempt < p.max_attempts ->
      go (attempt + 1) (fuel * p.growth)
  in
  go 1 p.initial_fuel
