(** Analytic STARK prover-time model.

    Each segment's execution trace is padded to a power of two; proving a
    segment costs [ns_per_cycle * padded * log2(padded)] (the FFT/LDE and
    commitment work scale as N log N) plus a fixed per-segment overhead
    covering setup and the recursion/aggregation step that folds the
    segment proof into the final one.  More segments therefore cost
    disproportionally more — the mechanism behind the paper's regex-match
    regression on SP1 (Fig. 13 discussion: 20 shards instead of 16). *)

type result = {
  time_s : float;
  segments : int;
  padded_cycles_total : int;
}

let log2f n = log (float_of_int n) /. log 2.0

(** Rows a trace of [n] real rows is padded to: the smallest power of
    two that is at least [n] and at least [2^min_po2].  Every model that
    prices committed trace area (the RV32 and Valida provers, recursion,
    settlement, the profiler's padding dimension) pads through here, so
    they all price what the prover commits. *)
let padded ~min_po2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go (1 lsl min_po2)

let prove (cfg : Config.t) (exec : Machine.result) : result =
  let segment_time (s : Machine.segment) =
    let actual = s.Machine.user_cycles + s.paging_cycles in
    let padded = padded ~min_po2:cfg.Config.min_po2 actual in
    ( padded,
      (float_of_int padded *. log2f padded *. cfg.Config.prove_ns_per_cycle)
      +. (float_of_int actual *. cfg.Config.prove_witgen_ns_per_cycle)
      +. cfg.Config.prove_segment_overhead_ns )
  in
  let padded_total, ns =
    List.fold_left
      (fun (p, t) s ->
        let padded, time = segment_time s in
        (p + padded, t +. time))
      (0, 0.0) exec.Machine.segments
  in
  { time_s = ns *. 1e-9; segments = List.length exec.Machine.segments;
    padded_cycles_total = padded_total }
