(** zkVM cost configurations.

    Two concrete configurations mirror the paper's subjects:

    - [risc0]: 1 KB pages with expensive page-in/page-out (~1130 cycles,
      per the RISC Zero optimization guide the paper cites), 2^20-cycle
      segments, near-uniform instruction costs.
    - [sp1]: larger shards (2^21), much cheaper page events (SP1's
      offline memory-checking amortizes memory cost), higher per-shard
      aggregation overhead in the prover (the paper's Fig. 13 regex-match
      regression is shard-count-driven).

    The wall-clock models are calibrated so baseline magnitudes land in
    the same range as the paper's Table 5 (seconds for execution, tens of
    seconds for proving on RISC Zero), but only *relative* effects
    matter for the study. *)

open Zkopt_riscv

type t = {
  name : string;
  page_bytes : int;
  page_in_cost : int;
  page_out_cost : int;
  segment_limit : int;            (* user cycles per segment/shard *)
  div_cost : int;                 (* div/rem instructions *)
  mul_cost : int;
  mem_cost : int;                 (* loads/stores (page cost separate) *)
  default_cost : int;
  precompile_costs : (string * int) list;
  (* prover model: per segment, time = ns_per_cycle * padded * log2(padded)
     + segment_overhead; padded = next power of two of the segment's
     cycle count, at least 2^min_po2 *)
  prove_ns_per_cycle : float;
  prove_witgen_ns_per_cycle : float;
      (* witness generation scales with the unpadded trace length *)
  prove_segment_overhead_ns : float;
  min_po2 : int;
  (* executor wall-clock model *)
  exec_ns_per_cycle : float;
  exec_overhead_ns : float;
}

(** The cost table.  Every instruction falls in one cost class, and a
    config prices a class, not an instruction: the priced machine's
    decoded cost words ({!instr_cost}) and the pricing of an unpriced
    run's per-class retire counts ([Vm.price]) both read it here. *)
let n_cost_classes = 4

let cost_class (i : Isa.t) =
  match i with
  | Isa.Op ((Isa.DIV | DIVU | REM | REMU), _, _, _) -> 1
  | Op ((Isa.MUL | MULH | MULHSU | MULHU), _, _, _) -> 2
  | Load _ | Store _ -> 3
  | _ -> 0

let class_cost t = function
  | 1 -> t.div_cost
  | 2 -> t.mul_cost
  | 3 -> t.mem_cost
  | _ -> t.default_cost

let instr_cost t (i : Isa.t) = class_cost t (cost_class i)

(** Cycle price of a precompile call.  Unknown names raise: every
    precompile a config can execute must be priced explicitly, so a typo
    in a cost table (or a new precompile added to {!Zkopt_ir.Extern}
    without a price) fails loudly instead of being silently billed a
    magic constant. *)
let precompile_cost t name =
  match List.assoc_opt name t.precompile_costs with
  | Some c -> c
  | None ->
    invalid_arg
      (Printf.sprintf "unpriced precompile %S on %s (priced: %s)" name t.name
         (String.concat ", " (List.map fst t.precompile_costs)))

let risc0 =
  {
    name = "risc0";
    page_bytes = 1024;
    page_in_cost = 1130;
    page_out_cost = 1130;
    segment_limit = 1 lsl 20;
    div_cost = 2;
    mul_cost = 1;
    mem_cost = 1;
    default_cost = 1;
    precompile_costs =
      [ ("sha256_compress", 68); ("keccakf", 220); ("ecdsa_verify", 4200);
        ("ed25519_verify", 3800); ("bigint_mulmod", 210) ];
    prove_ns_per_cycle = 2_600.0;
    prove_witgen_ns_per_cycle = 9_000.0;
    prove_segment_overhead_ns = 0.9e9;
    min_po2 = 13;
    exec_ns_per_cycle = 28.0;
    exec_overhead_ns = 0.035e9;
  }

let sp1 =
  {
    name = "sp1";
    page_bytes = 1024;
    page_in_cost = 110;
    page_out_cost = 40;
    segment_limit = 1 lsl 21;
    div_cost = 1;
    mul_cost = 1;
    mem_cost = 1;
    default_cost = 1;
    precompile_costs =
      [ ("sha256_compress", 60); ("keccakf", 180); ("ecdsa_verify", 3400);
        ("ed25519_verify", 3100); ("bigint_mulmod", 190) ];
    prove_ns_per_cycle = 380.0;
    prove_witgen_ns_per_cycle = 1_400.0;
    prove_segment_overhead_ns = 0.55e9;
    min_po2 = 14;
    exec_ns_per_cycle = 14.0;
    exec_overhead_ns = 0.05e9;
  }

let all = [ risc0; sp1 ]

let by_name name =
  match List.find_opt (fun c -> String.equal c.name name) all with
  | Some c -> c
  | None -> invalid_arg ("unknown zkVM config: " ^ name)
