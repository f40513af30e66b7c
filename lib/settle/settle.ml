(** Settlement pricing: one measurement -> cost to verified on-chain.

    A {!report} combines the three legs of the settlement pipeline —
    the backend's own prover time over its segments, the aggregation
    tree that folds the segment proofs to one root ({!Recursion}), and
    the EVM gas to verify the wrapped root ({!Gas}) — into a single
    scalar {!report.settled_cost} objective in integer micro-units
    (prover/aggregation seconds scale by 1e6; gas counts 1 unit per
    gas), so the autotuner and sweep engines consume it exactly like a
    cycle count.

    Pricing is a pure function of the {!Zkopt_backend.Backend.measurement}
    (no clocks, no randomness), so reports — and the row streams built
    from them — are byte-identical at any [--jobs]. *)

module Backend = Zkopt_backend.Backend
module Measure = Zkopt_core.Measure
module Json = Zkopt_report.Json

type weights = {
  w_prove : float;  (** segment proving seconds *)
  w_agg : float;  (** aggregation proving seconds (summed over nodes) *)
  w_gas : float;  (** verification gas units *)
}

let default_weights = { w_prove = 1.0; w_agg = 1.0; w_gas = 1.0 }

type report = {
  backend : string;
  family : string;  (** settlement-parameter family that priced it *)
  cycles : int;
  segments : int;
  prove_s : float;  (** the backend prover model's segment time *)
  seg_proof_bytes : int;  (** total size of the N segment proofs *)
  plan : Recursion.plan;
  gas : Gas.t;
  prover_cost : int;  (** micro-units: round(1e6 * w_prove * prove_s) *)
  agg_cost : int;  (** micro-units: round(1e6 * w_agg * agg_total_s) *)
  gas_cost : int;  (** micro-units: round(w_gas * gas.total) *)
  settled_cost : int;  (** the objective: prover + aggregation + gas *)
}

let micro x = int_of_float (Float.round (x *. 1e6))

(** Price one measurement for [backend].  [arity] is the aggregation
    fan-in (default 8); [weights] trade the three cost legs. *)
let price ?arity ?(weights = default_weights) ~(backend : string)
    (m : Backend.measurement) : report =
  let p = Sparams.find backend in
  let seg_padded = m.Backend.seg_padded in
  let plan = Recursion.plan p ?arity ~seg_padded () in
  let gas =
    Gas.of_root (Proofsize.ceil_log2 (max 2 plan.Recursion.root_padded))
  in
  let prove_s = m.Backend.zk.Measure.prove_time_s in
  let prover_cost = micro (weights.w_prove *. prove_s) in
  let agg_cost = micro (weights.w_agg *. plan.Recursion.agg_total_s) in
  let gas_cost =
    int_of_float (Float.round (weights.w_gas *. float_of_int gas.Gas.total))
  in
  {
    backend;
    family = p.Sparams.family;
    cycles = m.Backend.zk.Measure.cycles;
    segments = m.Backend.zk.Measure.segments;
    prove_s;
    seg_proof_bytes = Proofsize.total p ~seg_padded;
    plan;
    gas;
    prover_cost;
    agg_cost;
    gas_cost;
    settled_cost = prover_cost + agg_cost + gas_cost;
  }

(* ---- pricing invariants (the fuzz oracle and tests replay these) ---- *)

(** Check the metamorphic pricing invariants for a measurement: pricing
    is deterministic (same input priced twice gives the same report),
    the settled cost dominates its prover component, aggregation depth
    is exactly [ceil (log_arity segments)], and gas is monotone
    nondecreasing in the root proof's padded area. *)
let check_invariants ?arity ~(backend : string) (m : Backend.measurement) :
    (unit, string) result =
  let r1 = price ?arity ~backend m and r2 = price ?arity ~backend m in
  if r1 <> r2 then Error (backend ^ ": pricing is not deterministic")
  else if r1.settled_cost < r1.prover_cost then
    Error
      (Printf.sprintf "%s: settled cost %d < prover component %d" backend
         r1.settled_cost r1.prover_cost)
  else
    let expect =
      Recursion.depth_for ~arity:r1.plan.Recursion.arity
        r1.plan.Recursion.segments
    in
    if r1.plan.Recursion.depth <> expect then
      Error
        (Printf.sprintf
           "%s: aggregation depth %d <> ceil(log_%d %d) = %d" backend
           r1.plan.Recursion.depth r1.plan.Recursion.arity
           r1.plan.Recursion.segments expect)
    else
      let doubled = Gas.of_root (r1.gas.Gas.log_n + 1) in
      if doubled.Gas.total < r1.gas.Gas.total then
        Error
          (Printf.sprintf
             "%s: gas not monotone in root size (%d at log_n=%d, %d \
              doubled)"
             backend r1.gas.Gas.total r1.gas.Gas.log_n doubled.Gas.total)
      else Ok ()

(* ---- codecs ---------------------------------------------------------- *)

(** One settlement row: tab-separated, coordinate-first, terminal ["."]
    field so a torn tail from a kill never parses as a complete row.
    Floats travel as integer micro-units, making the encoding exact. *)
let row_of_report ~(program : string) ~(profile : string) (r : report) :
    string =
  String.concat "\t"
    [
      "S"; program; profile; r.backend; string_of_int r.cycles;
      string_of_int r.segments;
      string_of_int (micro r.prove_s);
      string_of_int r.seg_proof_bytes;
      string_of_int r.plan.Recursion.arity;
      string_of_int r.plan.Recursion.depth;
      string_of_int r.plan.Recursion.nodes;
      string_of_int r.plan.Recursion.agg_cycles;
      string_of_int (micro r.plan.Recursion.agg_total_s);
      string_of_int (micro r.plan.Recursion.agg_wall_s);
      string_of_int r.plan.Recursion.root_padded;
      string_of_int r.plan.Recursion.root_proof_bytes;
      string_of_int r.gas.Gas.log_n;
      string_of_int r.gas.Gas.total;
      string_of_int r.prover_cost;
      string_of_int r.agg_cost;
      string_of_int r.gas_cost;
      string_of_int r.settled_cost;
      ".";
    ]

(** Decode a row back to its coordinates and report.  The gas breakdown
    is regenerated from the encoded [log_n] (the model is pure).  Total:
    undecodable lines — including torn tails — return [None]. *)
let report_of_row (line : string) : (string * string * report) option =
  match String.split_on_char '\t' line with
  | [ "S"; program; profile; backend; cycles; segments; prove_us;
      seg_bytes; arity; depth; nodes; agg_cycles; agg_total_us;
      agg_wall_us; root_padded; root_bytes; log_n; gas_total; prover_cost;
      agg_cost; gas_cost; settled; "." ] -> (
    (* a field that is not an int drops out, so the list is short *)
    match
      ( Sparams.find_opt backend,
        List.filter_map int_of_string_opt
          [ cycles; segments; prove_us; seg_bytes; arity; depth; nodes;
            agg_cycles; agg_total_us; agg_wall_us; root_padded; root_bytes;
            log_n; gas_total; prover_cost; agg_cost; gas_cost; settled ] )
    with
    | ( Some params,
        [ cycles; segments; prove_us; seg_bytes; arity; depth; nodes;
          agg_cycles; agg_total_us; agg_wall_us; root_padded; root_bytes;
          log_n; gas_total; prover_cost; agg_cost; gas_cost; settled ] ) ->
      let gas = Gas.of_root log_n in
      if gas.Gas.total <> gas_total then None
      else
        Some
          ( program,
            profile,
            {
              backend;
              family = params.Sparams.family;
              cycles;
              segments;
              prove_s = float_of_int prove_us *. 1e-6;
              seg_proof_bytes = seg_bytes;
              plan =
                {
                  Recursion.arity;
                  segments;
                  depth;
                  nodes;
                  agg_cycles;
                  agg_total_s = float_of_int agg_total_us *. 1e-6;
                  agg_wall_s = float_of_int agg_wall_us *. 1e-6;
                  root_padded;
                  root_proof_bytes = root_bytes;
                };
              gas;
              prover_cost;
              agg_cost;
              gas_cost;
              settled_cost = settled;
            } )
    | _ -> None)
  | _ -> None

let json_of_report ~(program : string) ~(profile : string) (r : report) :
    Json.t =
  Json.Obj
    [
      ("program", Json.Str program);
      ("profile", Json.Str profile);
      ("backend", Json.Str r.backend);
      ("family", Json.Str r.family);
      ("cycles", Json.Int r.cycles);
      ("segments", Json.Int r.segments);
      ("prove_s", Json.Float r.prove_s);
      ("seg_proof_bytes", Json.Int r.seg_proof_bytes);
      ( "aggregation",
        Json.Obj
          [
            ("arity", Json.Int r.plan.Recursion.arity);
            ("depth", Json.Int r.plan.Recursion.depth);
            ("nodes", Json.Int r.plan.Recursion.nodes);
            ("cycles", Json.Int r.plan.Recursion.agg_cycles);
            ("total_s", Json.Float r.plan.Recursion.agg_total_s);
            ("wall_s", Json.Float r.plan.Recursion.agg_wall_s);
            ("root_padded", Json.Int r.plan.Recursion.root_padded);
            ("root_proof_bytes", Json.Int r.plan.Recursion.root_proof_bytes);
          ] );
      ( "gas",
        Json.Obj
          [
            ("log_n", Json.Int r.gas.Gas.log_n);
            ("load_parse", Json.Int r.gas.Gas.load_parse);
            ("transcript", Json.Int r.gas.Gas.transcript);
            ("pi_delta", Json.Int r.gas.Gas.pi_delta);
            ("sumcheck", Json.Int r.gas.Gas.sumcheck);
            ("shplemini", Json.Int r.gas.Gas.shplemini);
            ("total", Json.Int r.gas.Gas.total);
          ] );
      ("prover_cost", Json.Int r.prover_cost);
      ("agg_cost", Json.Int r.agg_cost);
      ("gas_cost", Json.Int r.gas_cost);
      ("settled_cost", Json.Int r.settled_cost);
    ]
