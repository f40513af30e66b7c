(** Backend tests: encoder/decoder round-trip, assembler relaxation,
    emulator semantics, register allocation under pressure, and the
    interp-vs-emulator differential on hand-picked programs. *)

open Zkopt_ir
open Zkopt_riscv
module Ref_emulator = Zkopt_oracle.Ref_emulator
module B = Builder

let check = Alcotest.check

let sample_instrs =
  [ Isa.Lui (5, 0x12345000l); Isa.Auipc (6, 0x7FFFF000l);
    Isa.Jal (1, 2048); Isa.Jal (0, -4096); Isa.Jalr (1, 5, -12);
    Isa.Branch (Isa.BEQ, 5, 6, 16); Isa.Branch (Isa.BGEU, 7, 8, -64);
    Isa.Load (Isa.LW, 9, 2, 124); Isa.Load (Isa.LB, 10, 2, -4);
    Isa.Load (Isa.LHU, 11, 2, 2); Isa.Store (Isa.SW, 12, 2, -8);
    Isa.Store (Isa.SB, 13, 2, 100);
    Isa.Op (Isa.ADD, 5, 6, 7); Isa.Op (Isa.SUB, 5, 6, 7);
    Isa.Op (Isa.MULHU, 5, 6, 7); Isa.Op (Isa.REMU, 5, 6, 7);
    Isa.Opi (Isa.ADDI, 5, 6, -2048); Isa.Opi (Isa.SLTIU, 5, 6, 2047);
    Isa.Opi (Isa.SRAI, 5, 6, 31); Isa.Opi (Isa.SLLI, 5, 6, 1);
    Isa.Ecall ]

let test_encode_decode_roundtrip () =
  List.iter
    (fun i ->
      let d = Isa.decode (Isa.encode i) in
      Alcotest.(check string) (Isa.to_string i) (Isa.to_string i) (Isa.to_string d))
    sample_instrs

let test_branch_relaxation () =
  (* a conditional branch across >4KB of code must be relaxed *)
  let filler = List.init 1200 (fun _ -> Asm.Ins (Isa.Opi (Isa.ADDI, 5, 5, 1))) in
  let unit_ =
    { Asm.name = "main";
      items =
        [ Asm.Label "start"; Asm.Bc (Isa.BEQ, 5, 0, "far") ]
        @ filler
        @ [ Asm.Label "far"; Asm.Li (17, 0l); Asm.Ins Isa.Ecall ] }
  in
  let globals = Hashtbl.create 1 in
  let prog = Asm.assemble ~globals ~data_end:0x20000l [ unit_ ] in
  (* it must execute correctly: x5 = 0 so the branch is taken *)
  let m = Modul.create () in
  let emu = Ref_emulator.create prog m in
  ignore (Ref_emulator.run emu);
  (* the relaxed form executes 2 instructions for the taken branch
     (inverted short branch + jal), then li a7 and ecall *)
  Alcotest.(check int) "filler skipped" 4 emu.Ref_emulator.retired

let test_emulator_arith () =
  (* spot-check a few alu ops against Eval *)
  List.iter
    (fun (op, iop) ->
      let a = 0xDEADBEEFl and b = 37l in
      let got = Ref_emulator.alu_op op a b in
      let expect =
        Eval.binop Ty.I32 iop
          (Eval.norm32 (Int64.of_int32 a))
          (Eval.norm32 (Int64.of_int32 b))
      in
      check Alcotest.int32 (Isa.rop_name op) (Int64.to_int32 expect) got)
    [ (Isa.ADD, Instr.Add); (Isa.SUB, Instr.Sub); (Isa.MUL, Instr.Mul);
      (Isa.MULHU, Instr.Mulhu); (Isa.DIV, Instr.Div); (Isa.REM, Instr.Rem);
      (Isa.DIVU, Instr.Udiv); (Isa.REMU, Instr.Urem); (Isa.AND, Instr.And);
      (Isa.SLL, Instr.Shl); (Isa.SRA, Instr.Ashr) ]

(* register pressure: a block with 30 simultaneously-live values forces
   spilling, and the result must still be correct *)
let test_regalloc_spilling () =
  let m = Modul.create () in
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let vals =
           List.init 30 (fun k ->
               B.mul b (B.imm (k + 1)) (B.imm (k + 3)))
         in
         let sum =
           List.fold_left (fun acc v -> B.add b acc v) (B.imm 0) vals
         in
         B.ret b (Some sum)));
  Verify.check m;
  let expected = Interp.checksum m in
  let got, _ = Ref_emulator.run_module m in
  check Alcotest.int64 "spill-correct" expected
    (Eval.norm32 (Int64.of_int32 got));
  (* and it genuinely spilled *)
  let cg = Codegen.compile m in
  let spills =
    List.fold_left (fun acc s -> acc + s.Codegen.spill_slots) 0 cg.Codegen.stats
  in
  Alcotest.(check bool) "spilled" true (spills > 0)

(* cross-call survival of values: caller-saved discipline *)
let test_values_survive_calls () =
  let m = Modul.create () in
  ignore
    (B.define m "id" ~params:[ Ty.I32 ] ~ret:Ty.I32 (fun b ps ->
         B.ret b (Some (List.nth ps 0))));
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let a = B.mul b (B.imm 1234) (B.imm 77) in
         let r1 = B.callv b "id" [ B.imm 1 ] in
         let r2 = B.callv b "id" [ B.imm 2 ] in
         B.ret b (Some (B.add b a (B.add b r1 r2)))));
  Verify.check m;
  let expected = Interp.checksum m in
  let got, _ = Ref_emulator.run_module m in
  check Alcotest.int64 "live across calls" expected
    (Eval.norm32 (Int64.of_int32 got))

let test_fallthrough_elision () =
  (* the selector drops jumps to the immediately following label *)
  let m = Modul.create () in
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let c = B.icmp b Instr.Eq (B.imm 1) (B.imm 1) in
         let r = B.var b Ty.I32 (B.imm 0) in
         B.if_ b c ~then_:(fun () -> B.set b Ty.I32 r (B.imm 7)) ();
         B.ret b (Some (Value.Reg r))));
  let got, _ = Ref_emulator.run_module m in
  check Alcotest.int32 "fallthrough" 7l got

let tests =
  [
    Alcotest.test_case "encode/decode roundtrip" `Quick test_encode_decode_roundtrip;
    Alcotest.test_case "branch relaxation" `Quick test_branch_relaxation;
    Alcotest.test_case "emulator arithmetic" `Quick test_emulator_arith;
    Alcotest.test_case "regalloc spilling" `Quick test_regalloc_spilling;
    Alcotest.test_case "values survive calls" `Quick test_values_survive_calls;
    Alcotest.test_case "fallthrough elision" `Quick test_fallthrough_elision;
  ]
