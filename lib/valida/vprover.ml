(** Multi-chip STARK prover model.

    Each segment commits each chip's table independently: a table of [n]
    real rows is padded to [Prover.padded ~min_po2 n] and costs
    [padded * log2(padded) * prove_ns_per_row] for LDE/commitment plus
    [n * prove_witgen_ns_per_row] for witness generation.  The key
    geometric consequence (vs. the RV32 single-table model): a segment's
    cost is driven by its *widest* chip, and idle chips cost only their
    padding floor — so shifting work between chips (e.g. ALU ops vs.
    memory traffic) changes cost even at a constant total row count. *)

type result = {
  time_s : float;
  segments : int;
  padded_rows_total : int;  (** sum of padded table sizes over all chips *)
}

let prove (cfg : Vconfig.t) (exec : Vexec.result) : result =
  let module P = Zkopt_zkvm.Prover in
  let table rows =
    let padded = P.padded ~min_po2:cfg.Vconfig.min_po2 rows in
    ( padded,
      (float_of_int padded *. P.log2f padded *. cfg.Vconfig.prove_ns_per_row)
      +. (float_of_int rows *. cfg.Vconfig.prove_witgen_ns_per_row) )
  in
  let segment (s : Vexec.segment) =
    let pc, tc = table s.Vexec.cpu_rows in
    let pa, ta = table s.Vexec.alu_rows in
    let pm, tm = table s.Vexec.mem_rows in
    (pc + pa + pm, tc +. ta +. tm +. cfg.Vconfig.prove_segment_overhead_ns)
  in
  let padded, ns =
    List.fold_left
      (fun (p, t) s ->
        let ps, ts = segment s in
        (p + ps, t +. ts))
      (0, 0.0) exec.Vexec.segments
  in
  {
    time_s = ns *. 1e-9;
    segments = List.length exec.Vexec.segments;
    padded_rows_total = padded;
  }

(** Rows of padding a table of [n] rows pays under this config. *)
let table_pad (cfg : Vconfig.t) n =
  Zkopt_zkvm.Prover.padded ~min_po2:cfg.Vconfig.min_po2 n - n
