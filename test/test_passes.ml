(** Pass tests: targeted transformation checks plus the differential
    property harness (every pass preserves random-program semantics, at
    the IR and machine level). *)

open Zkopt_ir
open Zkopt_passes
module B = Builder

let check = Alcotest.check
let cfg = Pass.standard_config

let count_instrs_matching m pred =
  let n = ref 0 in
  List.iter
    (fun (f : Func.t) -> Func.iter_instrs f (fun _ i -> if pred i then incr n))
    m.Modul.funcs;
  !n

(* ---- targeted transformations -------------------------------------- *)

let test_constprop_folds () =
  let m = Modul.create () in
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let x = B.add b (B.imm 2) (B.imm 3) in
         let y = B.mul b x (B.imm 10) in
         B.ret b (Some y)));
  ignore (Pass.run_sequence ~config:cfg [ "constprop"; "copyprop"; "constprop" ] m);
  check Alcotest.int64 "still 50" 50L (Interp.checksum m)

let test_dce_removes_dead () =
  let m = Modul.create () in
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let _dead = B.mul b (B.imm 3) (B.imm 4) in
         let _dead2 = B.xor b (B.imm 1) (B.imm 2) in
         B.ret b (Some (B.imm 9))));
  let before = Modul.instr_count m in
  ignore (Pass.run_one ~config:cfg "dce" m);
  Alcotest.(check bool) "shrank" true (Modul.instr_count m < before);
  check Alcotest.int64 "9" 9L (Interp.checksum m)

let test_inline_removes_call () =
  let m = Modul.create () in
  ignore
    (B.define m "helper" ~params:[ Ty.I32 ] ~ret:Ty.I32 (fun b ps ->
         B.ret b (Some (B.add b (List.nth ps 0) (B.imm 5)))));
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         B.ret b (Some (B.callv b "helper" [ B.imm 37 ]))));
  let expected = Interp.checksum m in
  ignore (Pass.run_one ~config:cfg "inline" m);
  Verify.check m;
  check Alcotest.int64 "semantics" expected (Interp.checksum m);
  Alcotest.(check int) "no calls left" 0
    (count_instrs_matching m (function Instr.Call _ -> true | _ -> false))

let test_inline_respects_threshold () =
  let m = Modul.create () in
  ignore
    (B.define m "big" ~params:[ Ty.I32 ] ~ret:Ty.I32 (fun b ps ->
         let v = ref (List.nth ps 0) in
         for _ = 1 to 400 do
           v := B.add b !v (B.imm 1)
         done;
         B.ret b (Some !v)));
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let a = B.callv b "big" [ B.imm 0 ] in
         let c = B.callv b "big" [ a ] in
         B.ret b (Some c)));
  let tiny = { cfg with Pass.inline_threshold = 10 } in
  ignore (Pass.run_one ~config:tiny "inline" m);
  Alcotest.(check int) "calls kept" 2
    (count_instrs_matching m (function Instr.Call _ -> true | _ -> false));
  let zk = Pass.zkvm_config in
  ignore (Pass.run_one ~config:zk "inline" m);
  Alcotest.(check int) "inlined under the 4328 threshold" 0
    (count_instrs_matching m (function Instr.Call _ -> true | _ -> false))

let test_licm_hoists () =
  let m = Modul.create () in
  ignore (B.global_zero m "arr" 400);
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let base = B.var b Ty.I32 (B.imm 12345) in
         let s = B.var b Ty.I32 (B.imm 0) in
         B.for_ b ~from:(B.imm 0) ~bound:(B.imm 50) (fun _i ->
             (* loop-invariant computation *)
             let inv = B.mul b (Value.Reg base) (B.imm 99) in
             B.set b Ty.I32 s (B.add b (Value.Reg s) inv));
         B.ret b (Some (Value.Reg s))));
  let expected = Interp.checksum m in
  let before = (Interp.run m).Interp.instrs_executed in
  ignore (Pass.run_one ~config:cfg "licm" m);
  Verify.check m;
  check Alcotest.int64 "semantics" expected (Interp.checksum m);
  let after = (Interp.run m).Interp.instrs_executed in
  Alcotest.(check bool) "fewer dynamic instrs" true (after < before)

let test_unroll_full () =
  let m = Modul.create () in
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let s = B.var b Ty.I32 (B.imm 0) in
         B.for_ b ~from:(B.imm 0) ~bound:(B.imm 6) (fun i ->
             B.set b Ty.I32 s (B.add b (Value.Reg s) (B.mul b i i)));
         B.ret b (Some (Value.Reg s))));
  let expected = Interp.checksum m in
  ignore (Pass.run_one ~config:cfg "loop-unroll" m);
  Verify.check m;
  check Alcotest.int64 "semantics" expected (Interp.checksum m);
  (* after constprop+simplifycfg the loop should be gone or bypassed: the
     dynamic branch count drops *)
  ignore (Pass.run_sequence ~config:cfg [ "constprop"; "simplifycfg"; "dce" ] m);
  check Alcotest.int64 "still" expected (Interp.checksum m)

let test_simplifycfg_if_converts () =
  let m = Modul.create () in
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let x = B.var b Ty.I32 (B.imm (-7)) in
         let r = B.var b Ty.I32 (Value.Reg x) in
         let neg = B.icmp b Instr.Slt (Value.Reg x) (B.imm 0) in
         B.if_ b neg
           ~then_:(fun () -> B.set b Ty.I32 r (B.sub b (B.imm 0) (Value.Reg x)))
           ();
         B.ret b (Some (Value.Reg r))));
  ignore (Pass.run_one ~config:cfg "simplifycfg" m);
  Verify.check m;
  check Alcotest.int64 "abs(-7)" 7L (Interp.checksum m);
  Alcotest.(check bool) "has a select" true
    (count_instrs_matching m (function Instr.Select _ -> true | _ -> false) > 0);
  (* the zkVM-aware config must refuse the conversion *)
  let m2 = Modul.create () in
  ignore
    (B.define m2 "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let x = B.var b Ty.I32 (B.imm (-7)) in
         let r = B.var b Ty.I32 (Value.Reg x) in
         let neg = B.icmp b Instr.Slt (Value.Reg x) (B.imm 0) in
         B.if_ b neg
           ~then_:(fun () -> B.set b Ty.I32 r (B.sub b (B.imm 0) (Value.Reg x)))
           ();
         B.ret b (Some (Value.Reg r))));
  ignore (Pass.run_one ~config:Pass.zkvm_config "simplifycfg" m2);
  Alcotest.(check int) "no select under zk config" 0
    (count_instrs_matching m2 (function Instr.Select _ -> true | _ -> false))

let test_strength_reduction_div () =
  let m = Modul.create () in
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let x = B.var b Ty.I32 (B.imm 1000001) in
         let q = B.udiv b (Value.Reg x) (B.imm 7) in
         let r = B.urem b (Value.Reg x) (B.imm 16) in
         let d = B.sdiv b (Value.Reg x) (B.imm 8) in
         B.ret b (Some (B.add b q (B.add b r d)))));
  let expected = Interp.checksum m in
  ignore (Pass.run_one ~config:cfg "strength-reduction" m);
  Verify.check m;
  check Alcotest.int64 "semantics" expected (Interp.checksum m);
  Alcotest.(check int) "divisions gone" 0
    (count_instrs_matching m (function
      | Instr.Bin { op = Instr.Udiv | Div; b = Value.Imm _; _ } -> true
      | _ -> false));
  (* the zkVM config leaves divisions alone *)
  let m2 = Modul.create () in
  ignore
    (B.define m2 "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         B.ret b (Some (B.udiv b (B.imm 100) (B.imm 7)))));
  Alcotest.(check bool) "zk config: unchanged" false
    (Pass.run_one ~config:Pass.zkvm_config "strength-reduction" m2)

let test_tailcallelim () =
  let m = Modul.create () in
  ignore
    (B.define m "count" ~params:[ Ty.I32; Ty.I32 ] ~ret:Ty.I32 (fun b ps ->
         let n = List.nth ps 0 and acc = List.nth ps 1 in
         let base = B.icmp b Instr.Sle n (B.imm 0) in
         B.if_ b base ~then_:(fun () -> B.ret b (Some acc)) ();
         let r =
           B.callv b "count" [ B.sub b n (B.imm 1); B.add b acc n ]
         in
         B.ret b (Some r)));
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         B.ret b (Some (B.callv b "count" [ B.imm 100; B.imm 0 ]))));
  let expected = Interp.checksum m in
  Alcotest.(check bool) "changed" true (Pass.run_one ~config:cfg "tailcallelim" m);
  Verify.check m;
  check Alcotest.int64 "semantics" expected (Interp.checksum m);
  (* the recursion is now a loop: interp uses no extra frames, and the
     self-call is gone *)
  let count_f = Modul.find_func_exn m "count" in
  let self_calls = ref 0 in
  Func.iter_instrs count_f (fun _ i ->
      match i with
      | Instr.Call { callee = "count"; _ } -> incr self_calls
      | _ -> ());
  Alcotest.(check int) "no self call" 0 !self_calls

let test_loop_idiom_memset () =
  let m = Modul.create () in
  ignore (B.global_zero m "arr" (4 * 64));
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         B.for_ b ~from:(B.imm 0) ~bound:(B.imm 64) (fun i ->
             B.store b ~addr:(B.addr b (Value.Glob "arr") ~index:i) (B.imm 42));
         B.ret b (Some (B.load b (B.addr b (Value.Glob "arr") ~index:(B.imm 63))))));
  Zkopt_runtime.Runtime.link m;
  let expected = Interp.checksum m in
  Alcotest.(check bool) "changed" true (Pass.run_one ~config:cfg "loop-idiom" m);
  Verify.check m;
  check Alcotest.int64 "memset semantics" expected (Interp.checksum m);
  Alcotest.(check bool) "calls memset_w" true
    (count_instrs_matching m (function
      | Instr.Call { callee = "memset_w"; _ } -> true
      | _ -> false)
    > 0)

let test_globaldce_keeps_runtime () =
  let m = Modul.create () in
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let q = B.udiv ~ty:Ty.I64 b (B.imm64 123456789L) (B.imm 7) in
         B.ret b (Some (B.trunc b q))));
  Zkopt_runtime.Runtime.link m;
  ignore (Pass.run_one ~config:cfg "globaldce" m);
  Alcotest.(check bool) "udivdi3 kept" true (Modul.find_func m "__udivdi3" <> None);
  Alcotest.(check bool) "sha soft dropped" true
    (Modul.find_func m "sha256_compress_soft" = None);
  (* and the program still compiles and runs *)
  let got, _ = Zkopt_oracle.Ref_emulator.run_module m in
  check Alcotest.int64 "runs" (Interp.checksum m)
    (Eval.norm32 (Int64.of_int32 got))

let test_mergefunc () =
  let m = Modul.create () in
  let body b ps = B.ret b (Some (B.add b (List.nth ps 0) (B.imm 3))) in
  ignore (B.define m "f1" ~params:[ Ty.I32 ] ~ret:Ty.I32 body);
  ignore (B.define m "f2" ~params:[ Ty.I32 ] ~ret:Ty.I32 body);
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let a = B.callv b "f1" [ B.imm 1 ] in
         let c = B.callv b "f2" [ B.imm 2 ] in
         B.ret b (Some (B.add b a c))));
  let expected = Interp.checksum m in
  Alcotest.(check bool) "merged" true (Pass.run_one ~config:cfg "mergefunc" m);
  Verify.check m;
  check Alcotest.int64 "semantics" expected (Interp.checksum m);
  Alcotest.(check int) "one copy left" 2 (List.length m.Modul.funcs)

(* ---- property tests ------------------------------------------------- *)

let prop_pass_preserves_semantics pass_name =
  QCheck.Test.make
    ~name:(Printf.sprintf "pass %s preserves semantics" pass_name)
    ~count:12
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let base = Randprog.generate ~seed () in
      Zkopt_runtime.Runtime.link base;
      let expected = Interp.checksum base in
      let m = Clone.modul base in
      ignore (Pass.run_one ~config:cfg pass_name m);
      Verify.check m;
      Int64.equal (Interp.checksum m) expected)

let prop_pipeline_matches_machine =
  QCheck.Test.make ~name:"O-levels preserve semantics down to RV32" ~count:8
    QCheck.(pair (int_range 1 100_000) (int_range 0 5))
    (fun (seed, lvl_idx) ->
      let base = Randprog.generate ~seed () in
      Zkopt_runtime.Runtime.link base;
      let expected = Interp.checksum base in
      let m = Clone.modul base in
      Catalog.run_level (List.nth Catalog.all_levels lvl_idx) m;
      Verify.check m;
      let got, _ = Zkopt_oracle.Ref_emulator.run_module m in
      Int64.equal (Eval.norm32 (Int64.of_int32 got)) expected)

let prop_encode_decode =
  QCheck.Test.make ~name:"rv32 encode/decode roundtrip" ~count:500
    QCheck.(quad (int_range 0 31) (int_range 0 31) (int_range 0 31) (int_range (-2048) 2047))
    (fun (rd, rs1, rs2, imm) ->
      let open Zkopt_riscv in
      let samples =
        [ Isa.Op (Isa.XOR, rd, rs1, rs2); Isa.Opi (Isa.ADDI, rd, rs1, imm);
          Isa.Load (Isa.LW, rd, rs1, imm); Isa.Store (Isa.SW, rs2, rs1, imm);
          Isa.Branch (Isa.BLT, rs1, rs2, (imm / 2) * 2) ]
      in
      List.for_all (fun i -> Isa.decode (Isa.encode i) = i) samples)

let property_tests =
  List.map QCheck_alcotest.to_alcotest
    (prop_pipeline_matches_machine :: prop_encode_decode
    :: List.map prop_pass_preserves_semantics
         [ "inline"; "licm"; "loop-unroll"; "simplifycfg"; "gvn"; "sccp";
           "strength-reduction"; "mem2reg"; "reg2mem"; "jump-threading";
           "adce"; "dse"; "loop-rotate"; "loop-deletion"; "indvars";
           "tail-dup"; "early-cse"; "instcombine" ])

let tests =
  [
    Alcotest.test_case "constprop folds" `Quick test_constprop_folds;
    Alcotest.test_case "dce removes dead" `Quick test_dce_removes_dead;
    Alcotest.test_case "inline removes call" `Quick test_inline_removes_call;
    Alcotest.test_case "inline threshold" `Quick test_inline_respects_threshold;
    Alcotest.test_case "licm hoists" `Quick test_licm_hoists;
    Alcotest.test_case "unroll full" `Quick test_unroll_full;
    Alcotest.test_case "simplifycfg if-convert" `Quick test_simplifycfg_if_converts;
    Alcotest.test_case "strength reduction" `Quick test_strength_reduction_div;
    Alcotest.test_case "tailcallelim" `Quick test_tailcallelim;
    Alcotest.test_case "loop-idiom memset" `Quick test_loop_idiom_memset;
    Alcotest.test_case "globaldce keeps runtime" `Quick test_globaldce_keeps_runtime;
    Alcotest.test_case "mergefunc" `Quick test_mergefunc;
  ]
  @ property_tests
