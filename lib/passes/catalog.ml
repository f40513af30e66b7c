(** The catalog of the 64 individually-benchmarked passes (matching the
    paper's RQ1 sweep) and the standard optimization levels.

    Referencing each implementation module here forces its registration
    side effects to be linked into any executable using this library. *)

let _force_linkage : (Pass.config -> Zkopt_ir.Modul.t -> bool) list =
  [ Constfold.run_constfold; Dce.run_dce; Peephole.run_instcombine;
    Mempass.run_mem2reg; Cfgopts.run_simplifycfg; Gvn.run_gvn;
    Inline.run_inline; Loopopts.run_licm; Loopopts2.run_fission;
    Interproc.run_sccp; Noops.vectorizer ]

(** The 64 passes of the RQ1 sweep, in a stable order. *)
let swept_passes =
  [
    (* inlining *)
    "inline"; "always-inline"; "partial-inliner";
    (* memory *)
    "mem2reg"; "reg2mem"; "sroa"; "memcpyopt"; "dse";
    (* scalar *)
    "constprop"; "copyprop"; "instsimplify"; "instcombine";
    "strength-reduction"; "reassociate"; "narrowing"; "dce"; "adce";
    "early-cse"; "gvn"; "newgvn"; "sccp"; "div-rem-pairs"; "consthoist";
    "correlated-propagation"; "sink"; "speculative-execution";
    (* control flow *)
    "simplifycfg"; "jump-threading"; "tail-dup"; "block-placement";
    "hot-cold-splitting"; "break-crit-edges";
    (* loops *)
    "licm"; "loop-unroll"; "loop-unroll-and-jam"; "loop-deletion";
    "loop-rotate"; "loop-simplify"; "lcssa"; "indvars"; "loop-reduce";
    "loop-data-prefetch"; "loop-fission"; "loop-fusion"; "loop-extract";
    "loop-idiom";
    (* interprocedural *)
    "ipsccp"; "globaldce"; "globalopt"; "deadargelim"; "mergefunc";
    "tailcallelim"; "function-attrs"; "attributor";
    (* target-gated no-ops *)
    "slp-vectorizer"; "loop-vectorize"; "load-store-vectorizer";
    "vector-combine"; "loweratomic"; "lower-expect";
    "alignment-from-assumptions"; "mergeicmps"; "called-value-propagation";
    "libcalls-shrinkwrap";
  ]

let () =
  (* "loop-unroll-and-jam": the unroller applied after fusion degrades to
     ordinary unrolling of whatever is innermost; exposed as the same
     engine (documented alias) *)
  Pass.register "loop-unroll-and-jam"
    "outer-loop unrolling (shares the unrolling engine)" Loopopts.run_unroll

let () =
  assert (List.length swept_passes = 64);
  List.iter (fun n -> ignore (Pass.find n)) swept_passes

(** All registered pass names (the swept 64 plus internal helpers such as
    copyprop used by pipelines). *)
let all_passes () = Pass.names ()

(* ------------------------------------------------------------------ *)
(* Standard optimization levels                                        *)
(* ------------------------------------------------------------------ *)

type level = O0 | O1 | O2 | O3 | Os | Oz

let level_name = function
  | O0 -> "-O0" | O1 -> "-O1" | O2 -> "-O2" | O3 -> "-O3"
  | Os -> "-Os" | Oz -> "-Oz"

let all_levels = [ O0; O1; O2; O3; Os; Oz ]

let cleanup = [ "constprop"; "copyprop"; "instsimplify"; "dce"; "simplifycfg" ]

(** Pass pipelines per level, modeled on LLVM's pipelines.  [-O0] mirrors
    "Rust MIR opts only": a handful of cheap local cleanups, including the
    select-forming simplifycfg that the paper observes regressing some
    programs on zkVMs. *)
let pipeline = function
  | O0 -> [ "constprop"; "instsimplify"; "simplifycfg"; "dce" ]
  | O1 ->
    [ "mem2reg"; "instcombine"; "simplifycfg"; "early-cse"; "always-inline";
      "partial-inliner"; "licm"; "dce" ]
    @ cleanup
  | O2 ->
    [ "mem2reg"; "sroa"; "ipsccp"; "globalopt"; "deadargelim"; "inline";
      "instcombine"; "simplifycfg"; "early-cse"; "jump-threading";
      "correlated-propagation"; "tailcallelim"; "reassociate"; "loop-simplify";
      "loop-rotate"; "licm"; "indvars"; "loop-idiom"; "loop-deletion";
      "loop-unroll"; "strength-reduction"; "gvn"; "memcpyopt"; "sccp";
      "div-rem-pairs"; "dse"; "adce"; "simplifycfg"; "instcombine";
      "block-placement"; "globaldce" ]
    @ cleanup
  | O3 ->
    [ "mem2reg"; "sroa"; "ipsccp"; "globalopt"; "deadargelim"; "inline";
      "instcombine"; "simplifycfg"; "early-cse"; "jump-threading";
      "correlated-propagation"; "tailcallelim"; "reassociate"; "loop-simplify";
      "loop-rotate"; "licm"; "indvars"; "loop-idiom"; "loop-deletion";
      "loop-unroll"; "strength-reduction"; "gvn"; "memcpyopt"; "sccp";
      "div-rem-pairs"; "dse"; "adce"; "simplifycfg"; "instcombine";
      "speculative-execution"; "loop-data-prefetch"; "narrowing"; "sink";
      "function-attrs"; "loop-unroll"; "instcombine"; "block-placement";
      "globaldce" ]
    @ cleanup
  | Os ->
    [ "mem2reg"; "sroa"; "ipsccp"; "deadargelim"; "partial-inliner";
      "instcombine"; "simplifycfg"; "early-cse"; "tailcallelim"; "reassociate";
      "loop-simplify"; "licm"; "loop-idiom"; "loop-deletion"; "gvn"; "sccp";
      "dse"; "adce"; "mergefunc"; "simplifycfg"; "globaldce" ]
    @ cleanup
  | Oz ->
    [ "mem2reg"; "sroa"; "ipsccp"; "deadargelim"; "instcombine"; "simplifycfg";
      "early-cse"; "tailcallelim"; "loop-simplify"; "loop-idiom";
      "loop-deletion"; "gvn"; "sccp"; "dse"; "adce"; "mergefunc";
      "hot-cold-splitting"; "simplifycfg"; "globaldce" ]
    @ cleanup

(** The threshold/heuristic configuration each level runs under. *)
let level_config (l : level) : Pass.config =
  match l with
  | O0 | O1 -> { Pass.standard_config with inline_threshold = 45 }
  | O2 -> Pass.standard_config
  | O3 ->
    { Pass.standard_config with inline_threshold = 275; unroll_max_factor = 8 }
  | Os ->
    { Pass.standard_config with inline_threshold = 50; unroll_max_factor = 2 }
  | Oz ->
    { Pass.standard_config with
      inline_threshold = 5;
      unroll_max_factor = 1;
      simplifycfg_select = false }

(** Run a standard level on a module. *)
let run_level ?config (l : level) m =
  let config = Option.value ~default:(level_config l) config in
  ignore (Pass.run_sequence ~config (pipeline l) m)

(** The paper's modified toolchain (§6.1): the -O3 pipeline minus the
    hardware-centric passes (change set 3), under the zkVM-aware cost
    model (change sets 1 and 2). *)
let zkvm_o3_pipeline =
  List.filter
    (fun p ->
      not
        (List.mem p
           [ "speculative-execution"; "loop-data-prefetch";
             "hot-cold-splitting" ]))
    (pipeline O3)

