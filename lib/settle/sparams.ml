(** Per-family settlement parameters.

    A backend family's settlement behaviour is described by two groups
    of constants:

    - {b proof encoding}: how a committed (padded) trace area turns into
      proof bytes — commitment roots, opened columns per FRI query,
      Merkle path hashes (one per level, so proof size is O(log N) in
      the padded area), and the final-polynomial tail;
    - {b recursion circuit}: how expensive it is to verify one child
      proof inside the family's own VM — a fixed verifier-circuit cost
      plus a per-byte absorption cost — priced by the {e same} prover
      constants ({!Zkopt_zkvm.Config} / {!Vconfig}) that price ordinary
      segments, so aggregation nodes cost exactly what the backend's
      prover says a trace of that length costs.

    Families are keyed by backend name with a prefix fallback, so ad-hoc
    config variants (["sp1-dense"]) price under their parent family. *)

type t = {
  family : string;  (** canonical family name: risc0 | sp1 | valida *)
  (* proof encoding *)
  field_bytes : int;  (** bytes per field element in the proof *)
  commit_roots : int;  (** Merkle roots committed (trace/quotient/FRI) *)
  commit_bytes : int;  (** bytes per Merkle root *)
  columns : int;  (** committed columns opened at each query point *)
  queries : int;  (** FRI query count (security parameter) *)
  path_bytes : int;  (** bytes per Merkle-path level per query *)
  fri_final_bytes : int;  (** final-polynomial + pow witness tail *)
  (* recursion circuit *)
  recur_base_cycles : int;  (** verifier circuit: fixed cycles per child *)
  recur_cycles_per_byte : int;  (** transcript absorption per proof byte *)
  (* the family's own prover model (mirrors the measurement configs) *)
  min_po2 : int;
  prove_ns_per_cycle : float;
  prove_witgen_ns_per_cycle : float;
  prove_segment_overhead_ns : float;
}

(* The RV32 families share the proof-encoding shape (both commit a
   single wide execution table over a 31-bit field) and differ in the
   prover constants they inherit from their measurement configs; valida
   commits three narrower chips, so fewer columns open per query. *)

let of_rv32 ~family ~columns ~queries ~recur_base_cycles
    (cfg : Zkopt_zkvm.Config.t) : t =
  {
    family;
    field_bytes = 4;
    commit_roots = 3;
    commit_bytes = 32;
    columns;
    queries;
    path_bytes = 32;
    fri_final_bytes = 256;
    recur_base_cycles;
    recur_cycles_per_byte = 6;
    min_po2 = cfg.Zkopt_zkvm.Config.min_po2;
    prove_ns_per_cycle = cfg.Zkopt_zkvm.Config.prove_ns_per_cycle;
    prove_witgen_ns_per_cycle = cfg.Zkopt_zkvm.Config.prove_witgen_ns_per_cycle;
    prove_segment_overhead_ns = cfg.Zkopt_zkvm.Config.prove_segment_overhead_ns;
  }

let risc0 =
  of_rv32 ~family:"risc0" ~columns:84 ~queries:50 ~recur_base_cycles:220_000
    Zkopt_zkvm.Config.risc0

let sp1 =
  of_rv32 ~family:"sp1" ~columns:96 ~queries:84 ~recur_base_cycles:180_000
    Zkopt_zkvm.Config.sp1

let valida =
  let cfg = Zkopt_valida.Vconfig.valida in
  {
    family = "valida";
    field_bytes = 4;
    commit_roots = 3;
    commit_bytes = 32;
    columns = 60;
    queries = 40;
    path_bytes = 32;
    fri_final_bytes = 128;
    recur_base_cycles = 150_000;
    recur_cycles_per_byte = 5;
    min_po2 = cfg.Zkopt_valida.Vconfig.min_po2;
    prove_ns_per_cycle = cfg.Zkopt_valida.Vconfig.prove_ns_per_row;
    prove_witgen_ns_per_cycle = cfg.Zkopt_valida.Vconfig.prove_witgen_ns_per_row;
    prove_segment_overhead_ns =
      cfg.Zkopt_valida.Vconfig.prove_segment_overhead_ns;
  }

let all = [ risc0; sp1; valida ]

(** Parameters for a backend name: exact family match, else the longest
    family prefix (["sp1-dense"] prices as [sp1]); [None] if neither. *)
let find_opt (name : string) : t option =
  match List.find_opt (fun p -> String.equal p.family name) all with
  | Some p -> Some p
  | None ->
    List.find_opt (fun p -> String.starts_with ~prefix:p.family name) all

(** {!find_opt}, but unknown names raise — every backend a settlement
    report prices must map to a family explicitly, mirroring the
    fail-loudly rule of the cost configs. *)
let find (name : string) : t =
  match find_opt name with
  | Some p -> p
  | None ->
    invalid_arg
      (Printf.sprintf "no settlement parameters for backend %S (families: %s)"
         name
         (String.concat ", " (List.map (fun p -> p.family) all)))
