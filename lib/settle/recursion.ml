(** Recursion/aggregation planner.

    Folds the N per-segment proofs of one measurement into a single
    root proof through an arity-[k] tree: each internal node is a
    recursion program that verifies its children's proofs inside the
    family's own VM, so its trace length is

      [recur_base_cycles * children + recur_cycles_per_byte * child_bytes]

    and it is priced by the {e same} prover formula as an ordinary
    segment (pow2-padded above the family floor, N log N commitment
    cost plus witness generation plus the per-segment overhead).

    The plan reports depth (exactly [ceil (log_arity segments)] — the
    invariant the pricing oracle replays), total aggregation cycles,
    summed prover seconds, and a wall-model latency where each level's
    nodes prove in parallel and levels are sequential. *)

module P = Zkopt_zkvm.Prover

type plan = {
  arity : int;
  segments : int;
  depth : int;  (** tree levels above the leaves; 0 when [segments <= 1] *)
  nodes : int;  (** internal (aggregation) proofs produced *)
  agg_cycles : int;  (** total recursion-trace cycles over all nodes *)
  agg_total_s : float;  (** summed prover seconds over all nodes *)
  agg_wall_s : float;  (** critical path: levels serial, nodes parallel *)
  root_padded : int;  (** committed area of the final proof's trace *)
  root_proof_bytes : int;  (** size of the proof the verifier receives *)
}

let ceil_div a b = (a + b - 1) / b

(** [depth_for ~arity n]: levels needed to fold [n] proofs to one. *)
let depth_for ~(arity : int) (n : int) : int =
  if n <= 1 then 0
  else
    let rec go n d = if n <= 1 then d else go (ceil_div n arity) (d + 1) in
    go n 0

(* One aggregation node over [children] child proofs totalling
   [child_bytes]: (cycles, padded, prover seconds, proof bytes). *)
let node (p : Sparams.t) ~(children : int) ~(child_bytes : int) =
  let cycles =
    (p.Sparams.recur_base_cycles * children)
    + (p.Sparams.recur_cycles_per_byte * child_bytes)
  in
  let padded = P.padded ~min_po2:p.Sparams.min_po2 cycles in
  let seconds =
    ((float_of_int padded *. P.log2f padded *. p.Sparams.prove_ns_per_cycle)
    +. (float_of_int cycles *. p.Sparams.prove_witgen_ns_per_cycle)
    +. p.Sparams.prove_segment_overhead_ns)
    *. 1e-9
  in
  (cycles, padded, seconds, Proofsize.bytes p ~padded)

let rec chunk k = function
  | [] -> []
  | l ->
    let rec take n acc = function
      | rest when n = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: tl -> take (n - 1) (x :: acc) tl
    in
    let g, rest = take k [] l in
    g :: chunk k rest

(** Plan the aggregation of [seg_padded] (per-segment committed areas,
    execution order) down to one root proof. *)
let plan (p : Sparams.t) ?(arity = 8) ~(seg_padded : int list) () : plan =
  let arity = max 2 arity in
  let leaves =
    List.map (fun padded -> (padded, Proofsize.bytes p ~padded)) seg_padded
  in
  let segments = List.length leaves in
  let rec fold level ~nodes ~cycles ~total_s ~wall_s =
    match level with
    | [] -> (nodes, cycles, total_s, wall_s, 0, 0)
    | [ (padded, bytes) ] -> (nodes, cycles, total_s, wall_s, padded, bytes)
    | level ->
      let groups = chunk arity level in
      let level', level_wall, nodes, cycles, total_s =
        List.fold_left
          (fun (acc, w, nn, cc, tt) group ->
            let child_bytes =
              List.fold_left (fun a (_, b) -> a + b) 0 group
            in
            let ncycles, padded, seconds, bytes =
              node p ~children:(List.length group) ~child_bytes
            in
            ( (padded, bytes) :: acc,
              max w seconds,
              nn + 1,
              cc + ncycles,
              tt +. seconds ))
          ([], 0.0, nodes, cycles, total_s) groups
      in
      fold (List.rev level') ~nodes ~cycles ~total_s
        ~wall_s:(wall_s +. level_wall)
  in
  let nodes, agg_cycles, agg_total_s, agg_wall_s, root_padded, root_bytes =
    fold leaves ~nodes:0 ~cycles:0 ~total_s:0.0 ~wall_s:0.0
  in
  {
    arity;
    segments;
    depth = depth_for ~arity segments;
    nodes;
    agg_cycles;
    agg_total_s;
    agg_wall_s;
    root_padded;
    root_proof_bytes = root_bytes;
  }
