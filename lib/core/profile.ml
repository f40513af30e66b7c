(** Optimization profiles: the 71 configurations of the study — an
    unoptimized baseline, the 64 individual passes, and the six standard
    levels — plus custom sequences (used by the autotuner) and the
    zkVM-aware modified -O3 of §6.1. *)

open Zkopt_passes

type t =
  | Baseline
  | Single_pass of string
  | Level of Catalog.level
  | Custom of string list * Pass.config
  | Tuned of { tname : string; passes : string list }
      (** an autotuner-published pipeline that keeps its given name in
          every report row (a [Custom] sequence names itself after its
          pass list, which is useless for "the tuned profile for npb-sp
          on risc0") *)
  | Zkvm_o3

let name = function
  | Baseline -> "baseline"
  | Single_pass p -> p
  | Level l -> Catalog.level_name l
  | Custom (ps, _) -> "custom:" ^ String.concat "," ps
  | Tuned { tname; _ } -> tname
  | Zkvm_o3 -> "-O3(zkvm)"

(** The one profile-name parser: ["baseline"], a level with or without
    its leading ["-"] (["O3"], ["-O3"]), the zkVM-aware -O3 under any of
    its names (["zk-o3"], ["zkvm-o3"], ["-O3(zkvm)"]), or any pass
    {!Pass.find} knows.  [of_name (name p) = Ok p] for the 71 profiles
    and [Zkvm_o3]. *)
let of_name (s : string) : (t, string) result =
  let level l =
    let n = Catalog.level_name l in
    String.equal s n || String.equal ("-" ^ s) n
  in
  match (s, List.find_opt level Catalog.all_levels) with
  | "baseline", _ -> Ok Baseline
  | ("zk-o3" | "zkvm-o3" | "-O3(zkvm)"), _ -> Ok Zkvm_o3
  | _, Some l -> Ok (Level l)
  | _, None -> (
    match Pass.find s with
    | _ -> Ok (Single_pass s)
    | exception Invalid_argument _ ->
      Error
        (Printf.sprintf
           "unknown profile %S (baseline, O0..O3, Os, Oz, zk-o3 or a pass \
            name)"
           s))

(** The paper's 71 profiles. *)
let all_71 =
  (Baseline :: List.map (fun p -> Single_pass p) Catalog.swept_passes)
  @ List.map (fun l -> Level l) Catalog.all_levels

(** The pass configuration and pass list a profile runs.  {!apply} runs
    exactly this, and the compile cache's input key digests it, so the
    two cannot disagree. *)
let pipeline : t -> Pass.config * string list = function
  | Baseline -> (Pass.standard_config, [])
  | Single_pass p -> (Pass.standard_config, [ p ])
  | Level l -> (Catalog.level_config l, Catalog.pipeline l)
  | Custom (ps, config) -> (config, ps)
  | Tuned { passes; _ } -> (Pass.standard_config, passes)
  | Zkvm_o3 -> (Pass.zkvm_config, Catalog.zkvm_o3_pipeline)

(** Apply a profile to a module in place (callers clone first). *)
let apply (t : t) (m : Zkopt_ir.Modul.t) =
  let config, passes = pipeline t in
  ignore (Pass.run_sequence ~config passes m)
