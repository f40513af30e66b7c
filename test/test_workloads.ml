(** Workload suite tests: composition matches the paper's Appendix B,
    every program runs identically under the interpreter and the compiled
    RV32 binary, and the runtime library is correct against the host. *)

open Zkopt_ir

let test_composition () =
  Zkopt_workloads.Suite.check_composition ();
  Alcotest.(check int) "58 programs" 58
    (List.length (Zkopt_workloads.Workload.all ()))

let differential (w : Zkopt_workloads.Workload.t) () =
  let m = w.Zkopt_workloads.Workload.build Zkopt_workloads.Workload.Quick in
  Zkopt_runtime.Runtime.link m;
  Verify.check m;
  let expected = Interp.checksum m in
  let got, _ = Zkopt_oracle.Ref_emulator.run_module m in
  Alcotest.(check int64) "interp = emulator" expected
    (Eval.norm32 (Int64.of_int32 got));
  (* and under -O3 the checksum is preserved end to end *)
  let m2 = w.Zkopt_workloads.Workload.build Zkopt_workloads.Workload.Quick in
  Zkopt_runtime.Runtime.link m2;
  Zkopt_passes.Catalog.run_level Zkopt_passes.Catalog.O3 m2;
  Verify.check m2;
  let got2, _ = Zkopt_oracle.Ref_emulator.run_module m2 in
  Alcotest.(check int64) "-O3 preserves checksum" expected
    (Eval.norm32 (Int64.of_int32 got2))

(* runtime library: division/shift helpers vs host arithmetic *)
let test_runtime_divmod () =
  let module B = Builder in
  let cases =
    [ (123456789012345L, 997L); (-9876543210L, 31L); (5L, 0L);
      (Int64.min_int, -1L); (Int64.max_int, 2L); (-1L, 3L) ]
  in
  List.iteri
    (fun idx (a, d) ->
      let m = Modul.create () in
      ignore
        (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
             let q = B.sdiv ~ty:Ty.I64 b (B.imm64 a) (B.imm64 d) in
             let r = B.srem ~ty:Ty.I64 b (B.imm64 a) (B.imm64 d) in
             let uq = B.udiv ~ty:Ty.I64 b (B.imm64 a) (B.imm64 d) in
             let x = B.xor ~ty:Ty.I64 b q (B.xor ~ty:Ty.I64 b r uq) in
             let lo = B.trunc b x in
             let hi = B.trunc b (B.lshr ~ty:Ty.I64 b x (B.imm 32)) in
             B.ret b (Some (B.xor b lo hi))));
      Zkopt_runtime.Runtime.link m;
      let expected = Interp.checksum m in
      let got, _ = Zkopt_oracle.Ref_emulator.run_module m in
      Alcotest.(check int64)
        (Printf.sprintf "case %d" idx)
        expected
        (Eval.norm32 (Int64.of_int32 got)))
    cases

let prop_softfloat_matches_host =
  QCheck.Test.make ~name:"softfloat f64 add/mul vs host (normal values)"
    ~count:60
    QCheck.(pair (float_range (-1e6) 1e6) (float_range (-1e6) 1e6))
    (fun (x, y) ->
      QCheck.assume (Float.abs x > 1e-3 && Float.abs y > 1e-3);
      let module B = Builder in
      let m = Modul.create () in
      let bits = Int64.bits_of_float in
      ignore
        (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
             let s = B.callv b "f64_mul" [ B.imm64 (bits x); B.imm64 (bits y) ] in
             B.ret b (Some (B.trunc b (B.lshr ~ty:Ty.I64 b s (B.imm 32))))));
      Zkopt_runtime.Runtime.link m;
      let got = Interp.checksum m in
      let expect =
        Eval.norm32 (Int64.shift_right_logical (bits (x *. y)) 32)
      in
      (* the simplified mantissa path rounds coarsely: accept the top
         word within 1 ulp of its 20 mantissa bits *)
      Int64.abs (Int64.sub got expect) <= 2L)

let prop_precompile_sha_matches_soft =
  QCheck.Test.make ~name:"sha256 precompile == soft implementation" ~count:10
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let module B = Builder in
      let m = Modul.create () in
      let blk =
        Array.init 16 (fun i -> Int32.of_int ((seed * (i + 3)) land 0xFFFFFF))
      in
      ignore (B.global_words m "st1" Extern.sha256_init_state);
      ignore (B.global_words m "st2" Extern.sha256_init_state);
      ignore (B.global_words m "blk" blk);
      ignore
        (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
             B.precompile b "sha256_compress" [ Value.Glob "st1"; Value.Glob "blk" ];
             B.call b "sha256_compress_soft" [ Value.Glob "st2"; Value.Glob "blk" ];
             let diff = B.var b Ty.I32 (B.imm 0) in
             B.for_ b ~from:(B.imm 0) ~bound:(B.imm 8) (fun i ->
                 let a = B.load b (B.addr b (Value.Glob "st1") ~index:i) in
                 let c = B.load b (B.addr b (Value.Glob "st2") ~index:i) in
                 B.set b Ty.I32 diff (B.or_ b (Value.Reg diff) (B.xor b a c)));
             B.ret b (Some (Value.Reg diff))));
      Zkopt_runtime.Runtime.link m;
      Int64.equal (Interp.checksum m) 0L)

let tests =
  Alcotest.test_case "suite composition" `Quick test_composition
  :: Alcotest.test_case "runtime div/mod helpers" `Quick test_runtime_divmod
  :: QCheck_alcotest.to_alcotest prop_softfloat_matches_host
  :: QCheck_alcotest.to_alcotest prop_precompile_sha_matches_soft
  :: List.map
       (fun (w : Zkopt_workloads.Workload.t) ->
         Alcotest.test_case
           ("differential: " ^ w.Zkopt_workloads.Workload.name)
           `Quick (differential w))
       (Zkopt_workloads.Suite.all ())
