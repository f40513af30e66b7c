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
  (* every runtime function, so that globaldce has dead ones to drop *)
  Zkopt_oracle.Ref_runtime.link m;
  Alcotest.(check bool) "sha soft linked" true
    (Modul.find_func m "sha256_compress_soft" <> None);
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

(* ---- licm and adce against their quadratic references --------------- *)

module Ref = Zkopt_oracle.Ref_passes

(* the registered licm: loop-simplify and lcssa, then the hoisting core *)
let ref_licm config m =
  let a = Loopopts.run_loop_simplify config m in
  let b = Loopopts.run_lcssa config m in
  let c = Ref.run_licm config m in
  a || b || c

let reference = function
  | "licm" -> ref_licm
  | "adce" -> Ref.run_adce
  | p -> invalid_arg ("no reference for " ^ p)

(* Run the library pass on [m] in place and its reference on a copy of
   [m]: both must report the same change and print the same IR.  The
   checksum property below cannot see a change of hoist order under the
   cap; this can.  Equal functions print equal IR, so the printer runs
   only when they differ. *)
let matches_reference config pass m =
  let theirs = Clone.modul m in
  let c1 = Pass.run_one ~config pass m in
  let c2 = reference pass config theirs in
  c1 = c2
  && (m.Modul.funcs = theirs.Modul.funcs
     || String.equal (Printer.modul m) (Printer.modul theirs))

(* The cap decides what licm hoists from [m]: lifting it changes the IR. *)
let cap_binds config m =
  let run config =
    let m = Clone.modul m in
    ignore (Pass.run_one ~config "licm" m);
    Printer.modul m
  in
  not (String.equal (run config) (run { config with Pass.licm_max_hoist = max_int }))

let prop_matches_reference =
  QCheck.Test.make ~name:"licm and adce print the reference passes' IR"
    ~count:40
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let m = Randprog.generate ~seed () in
      Zkopt_oracle.Ref_runtime.link m;
      List.for_all
        (fun config ->
          List.for_all
            (fun pass -> matches_reference config pass (Clone.modul m))
            [ "licm"; "adce" ])
        [ Pass.standard_config; Pass.zkvm_config ])

(* Every module a suite program at Quick gives licm and adce: its baseline
   module, and the module each of the six levels and -O3(zkvm) passes to
   its first licm and to its first adce.  Both passes treat each function
   on its own and read no config field but the cap, and the linked
   runtime is most of every module, so a function already checked under
   the same pass and cap is skipped.  The whole runtime library is
   linked, so that both passes see every runtime function. *)
let test_suite_matches_reference () =
  let pipelines =
    List.map
      (fun l -> (Catalog.level_name l, Catalog.level_config l, Catalog.pipeline l))
      Catalog.all_levels
    @ [ ("-O3(zkvm)", Pass.zkvm_config, Catalog.zkvm_o3_pipeline) ]
  in
  let differ = ref [] and capped = ref false in
  let checked = Hashtbl.create 256 in
  let check what config pass (m : Modul.t) =
    if String.equal pass "licm" && not !capped then capped := cap_binds config m;
    let key f = (pass, config.Pass.licm_max_hoist, f) in
    let fresh = List.filter (fun f -> not (Hashtbl.mem checked (key f))) m.Modul.funcs in
    List.iter (fun f -> Hashtbl.replace checked (key (Clone.func f)) ()) fresh;
    if not (matches_reference config pass (Clone.modul { m with Modul.funcs = fresh }))
    then differ := Printf.sprintf "%s: %s" what pass :: !differ
  in
  List.iter
    (fun (w : Zkopt_workloads.Workload.t) ->
      let name = w.Zkopt_workloads.Workload.name in
      let base = w.Zkopt_workloads.Workload.build Zkopt_workloads.Workload.Quick in
      Zkopt_oracle.Ref_runtime.link base;
      List.iter (fun pass -> check (name ^ " baseline") cfg pass base) [ "licm"; "adce" ];
      List.iter
        (fun (what, config, passes) ->
          let m = Clone.modul base in
          let rec walk todo = function
            | p :: rest when todo <> [] ->
              if List.mem p todo then check (name ^ " " ^ what) config p m;
              let todo = List.filter (fun q -> not (String.equal q p)) todo in
              if todo <> [] then begin
                ignore (Pass.run_one ~config p m);
                walk todo rest
              end
            | _ -> ()
          in
          walk (List.filter (fun p -> List.mem p passes) [ "licm"; "adce" ]) passes)
        pipelines)
    (Zkopt_workloads.Suite.all ());
  Alcotest.(check (list string)) "differs from the reference" [] !differ;
  Alcotest.(check bool) "some case reaches licm_max_hoist" true !capped

(* ---- work counts ------------------------------------------------------ *)

(* Minor words one run of [pass] allocates: a count that repeats exactly,
   so a quadratic pass shows without timing noise. *)
let pass_words pass m =
  let before = Gc.minor_words () in
  ignore (Pass.run_one ~config:cfg pass m);
  Gc.minor_words () -. before

(* a live chain of [n] adds *)
let add_chain n =
  let m = Modul.create () in
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let v = ref (B.imm 1) in
         for _ = 1 to n do
           v := B.add b !v (B.imm 1)
         done;
         B.ret b (Some !v)));
  m

(* a 4-trip loop whose body has [n] adds on the induction variable ahead
   of 8 invariant multiplies: every rescan for the next hoist walks the
   adds first *)
let invariants_last n =
  let m = Modul.create () in
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let base = B.var b Ty.I32 (B.imm 12345) in
         let s = B.var b Ty.I32 (B.imm 0) in
         B.for_ b ~from:(B.imm 0) ~bound:(B.imm 4) (fun i ->
             for k = 1 to n do
               ignore (B.add b i (B.imm k))
             done;
             for k = 1 to 8 do
               let inv = B.mul b (Value.Reg base) (B.imm k) in
               B.set b Ty.I32 s (B.add b (Value.Reg s) inv)
             done);
         B.ret b (Some (Value.Reg s))));
  m

let test_linear_work () =
  List.iter
    (fun (pass, shape) ->
      let w500 = pass_words pass (shape 500) in
      let w1000 = pass_words pass (shape 1000) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f -> %.0f minor words (x%.2f) when n doubles" pass
           w500 w1000 (w1000 /. w500))
        true
        (w1000 < 3. *. w500))
    [ ("adce", add_chain); ("licm", invariants_last) ]

(* ---- property tests ------------------------------------------------- *)

let prop_pass_preserves_semantics pass_name =
  QCheck.Test.make
    ~name:(Printf.sprintf "pass %s preserves semantics" pass_name)
    ~count:12
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let base = Randprog.generate ~seed () in
      Zkopt_oracle.Ref_runtime.link base;
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
      Zkopt_oracle.Ref_runtime.link base;
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
    (prop_pipeline_matches_machine :: prop_encode_decode :: prop_matches_reference
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
    Alcotest.test_case "licm and adce = reference on the suite" `Quick
      test_suite_matches_reference;
    Alcotest.test_case "adce and licm work is linear in size" `Quick
      test_linear_work;
  ]
  @ property_tests
