(** The runtime link: {!Zkopt_runtime.Runtime.link} adds only the
    members a module can reach, and every module it prepares is the one
    the whole-library link ({!Zkopt_oracle.Ref_runtime.link}) prepares
    once globaldce has pruned it. *)

open Zkopt_ir
open Zkopt_core
module W = Zkopt_workloads.Workload
module R = Zkopt_runtime.Runtime
module B = Builder
module Fingerprint = Zkopt_exec.Fingerprint

(** {!Measure.prepare_ir} on the whole-library link. *)
let prepare_ref ~build profile =
  let m = build () in
  Zkopt_oracle.Ref_runtime.link m;
  Profile.apply profile m;
  ignore (Zkopt_passes.Pass.run_one "globaldce" m);
  Verify.check m;
  m

let same_module ~build profile =
  String.equal
    (Fingerprint.encode (Measure.prepare_ir ~build profile))
    (Fingerprint.encode (prepare_ref ~build profile))

let quick (w : W.t) () = w.W.build W.Quick

(* Baseline, the six levels, -O3(zkvm), and the single passes that read
   other functions or add calls: loop-idiom calls memset_w, loop-extract
   outlines the first loop in module order, consthoist turns shift
   amounts into registers, and inline, globalopt and mergefunc look
   across functions. *)
let suite_profiles =
  (Profile.Baseline :: List.map (fun l -> Profile.Level l) Zkopt_passes.Catalog.all_levels)
  @ Profile.Zkvm_o3
    :: List.map
         (fun p -> Profile.Single_pass p)
         [ "loop-idiom"; "loop-extract"; "consthoist"; "inline"; "globalopt";
           "mergefunc"; "div-rem-pairs" ]

let test_suite () =
  let differ =
    List.concat_map
      (fun (w : W.t) ->
        List.filter_map
          (fun p ->
            if same_module ~build:(quick w) p then None
            else Some (w.W.name ^ " " ^ Profile.name p))
          suite_profiles)
      (Zkopt_workloads.Suite.all ())
  in
  Alcotest.(check (list string)) "modules that differ" [] differ

(* A random pass list with at most one loop-extract: the one pass whose
   result depends on unreachable functions, through the loop it picks
   when it runs a second time. *)
let passes_gen =
  let open QCheck.Gen in
  let swept = Array.of_list Zkopt_passes.Catalog.swept_passes in
  let* passes = list_size (int_range 1 8) (oneofa swept) in
  let rec at_most_one seen = function
    | "loop-extract" :: rest when seen -> at_most_one seen rest
    | "loop-extract" :: rest -> "loop-extract" :: at_most_one true rest
    | p :: rest -> p :: at_most_one seen rest
    | [] -> []
  in
  return (at_most_one false passes)

(* [Ok] the module's encoding and assembled code, or [Error] the failure *)
let outcome prepare ~build profile =
  match
    let m = prepare ~build profile in
    let c = Measure.compile_ir m in
    (Fingerprint.encode m, c.Measure.codegen.Zkopt_riscv.Codegen.program.Zkopt_riscv.Asm.code)
  with
  | r -> Ok r
  | exception e -> Error (Printexc.to_string e)

let prop_random_pipelines =
  let programs = lazy (Array.of_list (Zkopt_workloads.Suite.all ())) in
  QCheck.Test.make ~name:"random pipelines prepare and assemble as the whole link"
    ~count:300
    QCheck.(
      make
        ~print:(fun (src, passes) ->
          Printf.sprintf "%s: %s"
            (match src with `Rand s -> Printf.sprintf "randprog %d" s | `Suite i -> string_of_int i)
            (String.concat "," passes))
        Gen.(
          pair
            (oneof
               [ map (fun s -> `Rand s) (int_range 1 100_000);
                 map (fun i -> `Suite i) (int_range 0 57) ])
            passes_gen))
    (fun (src, passes) ->
      let build =
        match src with
        | `Rand seed -> fun () -> Randprog.generate ~seed ()
        | `Suite i -> quick (Lazy.force programs).(i mod Array.length (Lazy.force programs))
      in
      let profile = Profile.Custom (passes, Zkopt_passes.Pass.standard_config) in
      outcome (Measure.prepare_ir ?verify:None) ~build profile
      = outcome prepare_ref ~build profile)

(* The documented difference: loop-extract stops at the first loop it
   can extract in module order.  Under the whole-library link the second
   loop-extract of this pipeline outlines a loop of an unreachable
   runtime function; under the reachable link it outlines one of
   bigmem's own. *)
let test_repeated_loop_extract () =
  ignore (Zkopt_workloads.Suite.all ());
  let w = W.find "bigmem" in
  let profile =
    Profile.Custom
      ( [ "early-cse"; "instcombine"; "block-placement"; "early-cse"; "loop-rotate";
          "loweratomic"; "loop-extract"; "loop-extract" ],
        Zkopt_passes.Pass.standard_config )
  in
  Alcotest.(check bool) "modules differ" false (same_module ~build:(quick w) profile);
  let reference = Interp.checksum (w.W.build W.Quick) in
  List.iter
    (fun (what, m) ->
      Alcotest.(check int64) (what ^ " checksum") reference (Interp.checksum m))
    [ ("reachable link", Measure.prepare_ir ~build:(quick w) profile);
      ("whole link", prepare_ref ~build:(quick w) profile) ]

let runtime_funcs (m : Modul.t) =
  List.filter_map
    (fun (f : Func.t) ->
      if List.exists (fun (e : R.member) -> String.equal e.R.name f.Func.name) R.members
      then Some f.Func.name
      else None)
    m.Modul.funcs

let linked build =
  let m = build () in
  R.link m;
  m

let test_link_sets () =
  ignore (Zkopt_workloads.Suite.all ());
  List.iter
    (fun (prog, expected) ->
      let m = linked (quick (W.find prog)) in
      Alcotest.(check (list string)) prog expected (runtime_funcs m);
      Alcotest.(check bool) (prog ^ " __sha256_k") true
        (Modul.find_global m "__sha256_k" <> None))
    [ ("factorial", [ "memset_w" ]);
      ("fibonacci", [ "__ashldi3"; "__ashrdi3"; "__udivdi3"; "__divdi3"; "memset_w" ]);
      ( "sha256",
        [ "__ashldi3"; "__ashrdi3"; "__udivdi3"; "__divdi3"; "memset_w";
          "sha256_compress_soft" ] );
      ( "ecdsa-verify",
        [ "__ashldi3"; "__ashrdi3"; "__udivdi3"; "__divdi3"; "memset_w";
          "sha256_compress_soft" ] ) ];
  (* a shift by an immediate links its helper: consthoist may turn the
     amount into a register *)
  let shifts op =
    linked (fun () ->
        let m = Modul.create () in
        ignore
          (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
               B.ret b (Some (B.trunc b (B.bin b Ty.I64 op (B.imm64 0x1234L) (B.imm 4))))));
        m)
  in
  List.iter
    (fun (op, name) ->
      Alcotest.(check (list string)) name [ name; "memset_w" ] (runtime_funcs (shifts op)))
    [ (Instr.Shl, "__ashldi3"); (Lshr, "__lshrdi3"); (Ashr, "__ashrdi3") ];
  (* a call pulls in the members its member calls *)
  let m =
    linked (fun () ->
        let m = Modul.create () in
        ignore
          (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
               let s = B.callv b "f64_add" [ B.imm64 1L; B.imm64 2L ] in
               let q = B.sdiv ~ty:Ty.I64 b s (B.imm64 3L) in
               B.ret b (Some (B.trunc b q))));
        m)
  in
  Alcotest.(check (list string)) "f64_add and sdiv"
    [ "__lshrdi3"; "__udivdi3"; "__divdi3"; "memset_w"; "f64_add" ]
    (runtime_funcs m);
  List.iter
    (fun name ->
      match Modul.find_func m name with
      | Some f -> Alcotest.(check bool) (name ^ " external") false f.Func.attrs.Func.internal
      | None -> ())
    (runtime_funcs m)

(* The shifts a pass adds need no helper: strength-reduction turns a
   64-bit multiply or unsigned divide by 2^k into a shift by the
   immediate k, which the code generator lowers inline, and consthoist
   hoists 4096 but leaves the operands of 64-bit operations alone. *)
let test_added_shifts () =
  let m =
    linked (fun () ->
        let m = Modul.create () in
        ignore
          (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
               let x = ref (B.imm64 0x1234_5678L) in
               for _ = 1 to 3 do
                 x := B.mul ~ty:Ty.I64 b !x (B.imm 4096)
               done;
               B.ret b (Some (B.trunc b (B.udiv ~ty:Ty.I64 b !x (B.imm 4096))))));
        m)
  in
  let expected = Interp.checksum m in
  List.iter
    (fun p -> Alcotest.(check bool) p true (Zkopt_passes.Pass.run_one p m))
    [ "consthoist"; "strength-reduction" ];
  Verify.check m;
  let amounts = ref [] in
  Func.iter_instrs (Modul.main m) (fun _ i ->
      match i with
      | Instr.Bin { ty = Ty.I64; op = Shl | Lshr | Ashr; b; _ } ->
        amounts := Value.to_string b :: !amounts
      | _ -> ());
  Alcotest.(check (list string)) "shift amounts" [ "12"; "12"; "12"; "12" ] !amounts;
  Alcotest.(check (list string)) "linked" [ "__udivdi3"; "memset_w" ] (runtime_funcs m);
  let got, _ = Zkopt_oracle.Ref_emulator.run_module m in
  Alcotest.(check int64) "runs" expected (Eval.norm32 (Int64.of_int32 got))

(* Each member's [calls] lists the runtime functions its body calls. *)
let test_member_calls () =
  List.iter
    (fun (e : R.member) ->
      let m = Modul.create () in
      e.R.define m;
      let calls = ref [] in
      Func.iter_instrs (Modul.find_func_exn m e.R.name) (fun _ i ->
          match i with
          | Instr.Call { callee; _ } when not (List.mem callee !calls) ->
            calls := callee :: !calls
          | _ -> ());
      Alcotest.(check (list string)) e.R.name (List.sort compare e.R.calls)
        (List.sort compare !calls))
    R.members

(* The work the link saves: the 15 programs of the benchmark's [levels]
   workload (every fourth suite program) link 7,869 instructions when
   every runtime function is linked. *)
let levels_programs =
  [ "bigmem"; "loop-sum"; "sha256"; "npb-bt"; "npb-is"; "polybench-2mm";
    "polybench-bicg"; "polybench-deriche"; "polybench-floyd-warshall";
    "polybench-gramschmidt"; "polybench-lu"; "polybench-seidel-2d";
    "polybench-trisolv"; "spec-619"; "fibonacci" ]

let test_levels_link_size () =
  ignore (Zkopt_workloads.Suite.all ());
  let total =
    List.fold_left
      (fun n prog -> n + Modul.instr_count (linked (quick (W.find prog))))
      0 levels_programs
  in
  Alcotest.(check bool)
    (Printf.sprintf "levels programs link %d instructions <= 2935" total)
    true (total <= 2935)

let tests =
  [
    Alcotest.test_case "prepared modules = whole link on the suite" `Quick test_suite;
    QCheck_alcotest.to_alcotest prop_random_pipelines;
    Alcotest.test_case "repeated loop-extract is the documented difference" `Quick
      test_repeated_loop_extract;
    Alcotest.test_case "link sets" `Quick test_link_sets;
    Alcotest.test_case "shifts a pass adds need no helper" `Quick test_added_shifts;
    Alcotest.test_case "member table lists each body's calls" `Quick test_member_calls;
    Alcotest.test_case "levels programs link at most 2935 instructions" `Quick
      test_levels_link_size;
  ]
