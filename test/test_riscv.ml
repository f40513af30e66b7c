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

(* ---- regalloc and the assembler against their references ----------- *)

module Ref_regalloc = Zkopt_oracle.Ref_regalloc
module Ref_asm = Zkopt_oracle.Ref_asm

let outcome f = match f () with v -> Ok v | exception Failure e -> Error e

(* What a program image is compared on: code, srcmap, symbols (sorted)
   and [data_end]; or the assembler's failure. *)
let image f =
  match f () with
  | (p : Asm.program) ->
    Ok
      ( p.Asm.code,
        p.Asm.srcmap,
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) p.Asm.symbols []),
        p.Asm.data_end,
        p.Asm.base )
  | exception Asm.Asm_error e -> Error e

let assemble_both ~globals ~data_end units =
  ( image (fun () -> Asm.assemble ~globals ~data_end units),
    image (fun () -> Ref_asm.assemble ~globals ~data_end units) )

(* Every function's selected items allocate as the reference does, whole
   result, at its own frame's slot base and at one high enough that any
   function with more than two spill slots fails; the module's units
   assemble as the reference does. *)
let codegen_differs (m : Modul.t) =
  let alloc =
    List.concat_map
      (fun (f : Func.t) ->
        let sel = Isel.select m f in
        List.filter_map
          (fun slot_base ->
            let a () = Regalloc.allocate ~slot_base sel.Isel.items in
            let r () = Ref_regalloc.allocate ~slot_base sel.Isel.items in
            if outcome a = outcome r then None
            else Some (Printf.sprintf "%s: allocate ~slot_base:%d" f.Func.name slot_base))
          [ sel.Isel.alloca_bytes; 2032 ])
      m.Modul.funcs
  in
  let mains, rest =
    List.partition (fun (f : Func.t) -> String.equal f.Func.name "main") m.Modul.funcs
  in
  let units = List.map (fun f -> fst (Codegen.lower_func m f)) (mains @ rest) in
  let globals, data_end = Layout.place_globals m in
  let ours, theirs = assemble_both ~globals ~data_end units in
  alloc @ if ours = theirs then [] else [ "assemble" ]

let prop_codegen_matches_reference =
  QCheck.Test.make ~name:"regalloc and assembler = reference on random programs"
    ~count:40
    QCheck.(int_range 1 100_000)
    (fun seed -> codegen_differs (Pin_modules.random seed) = [])

let test_codegen_suite () =
  List.iter
    (fun (what, m) -> Alcotest.(check (list string)) what [] (codegen_differs m))
    (Lazy.force Pin_modules.suite)

let filler n = List.init n (fun _ -> Asm.Ins (Isa.Opi (Isa.ADDI, 5, 5, 1)))

let check_same what (ours, theirs) =
  Alcotest.(check bool) (what ^ ": same as the reference") true (ours = theirs)

(* Units the compiler never emits: relaxation that cascades, undefined
   labels and symbols (same exception, same message), a label defined
   twice (the last definition wins), units sharing a name, an empty
   unit and a unit without provenance markers. *)
let test_assemble_units () =
  let globals = Hashtbl.create 4 in
  Hashtbl.replace globals "g" 0x10000l;
  let asm units = assemble_both ~globals ~data_end:0x20000l units in
  (* [near] is exactly in range until [far]'s relaxation grows the code
     between them by one word *)
  let cascade =
    { Asm.name = "main";
      items =
        [ Asm.Loc "entry"; Asm.Bc (Isa.BNE, 5, 0, "near"); Asm.Bc (Isa.BEQ, 5, 0, "far") ]
        @ filler 1021
        @ [ Asm.Label "near"; Asm.Li (6, 0x12345l); Asm.Li (6, 0x12000l); Asm.La (7, "g") ]
        @ filler 1100
        @ [ Asm.Label "far"; Asm.Loc "exit"; Asm.Bc (Isa.BLTU, 5, 6, "near");
            Asm.Li (17, 0l); Asm.Ins Isa.Ecall ] }
  in
  let ours, _ = asm [ cascade ] in
  check_same "cascading relaxation" (ours, snd (asm [ cascade ]));
  (match ours with
   | Ok (code, _, _, _, _) ->
     (* both forward branches take the long form: two words each *)
     Alcotest.(check bool) "near relaxed" true
       (match code.(0), code.(1) with
        | Isa.Branch (Isa.BEQ, 5, 0, 8), Isa.Jal (0, _) -> true
        | _ -> false);
     Alcotest.(check bool) "far relaxed" true
       (match code.(2), code.(3) with
        | Isa.Branch (Isa.BNE, 5, 0, 8), Isa.Jal (0, _) -> true
        | _ -> false)
   | Error e -> Alcotest.fail e);
  let undefined items = asm [ { Asm.name = "main"; items } ] in
  List.iter
    (fun (what, items, msg) ->
      let ours, theirs = undefined items in
      check_same what (ours, theirs);
      Alcotest.(check bool) (what ^ ": " ^ msg) true (ours = Error msg))
    [ ("branch", [ Asm.J "nowhere"; Asm.Bc (Isa.BEQ, 5, 0, "missing") ],
       "undefined label missing in main");
      ("jump", [ Asm.J "nowhere" ], "undefined label nowhere in main");
      ("address", [ Asm.La (5, "nosuch") ], "undefined symbol nosuch");
      ("call", [ Asm.CallSym "nosuch" ], "undefined function nosuch") ];
  let twice =
    { Asm.name = "main";
      items =
        [ Asm.Label "x"; Asm.Ins Isa.Ecall; Asm.Label "x"; Asm.Bc (Isa.BEQ, 5, 0, "x");
          Asm.J "x" ] }
  in
  let ours, theirs = asm [ twice ] in
  check_same "duplicated label" (ours, theirs);
  (match ours with
   | Ok (code, _, _, _, _) ->
     Alcotest.(check bool) "last definition wins" true
       (code.(1) = Isa.Branch (Isa.BEQ, 5, 0, 0) && code.(2) = Isa.Jal (0, -4))
   | Error e -> Alcotest.fail e);
  let f1 = { Asm.name = "f"; items = [ Asm.Loc "a"; Asm.Label "l"; Asm.Ins Isa.Ecall ] }
  and f2 = { Asm.name = "f"; items = [ Asm.Ins Isa.Ecall; Asm.J "l" ] }
  and empty = { Asm.name = "e"; items = [] }
  and bare = { Asm.name = "h"; items = [ Asm.CallSym "f"; Asm.CallSym "main"; Asm.Ret ] } in
  check_same "shared names, empty and bare units"
    (asm [ cascade; f1; empty; f2; bare; f1 ])

(* Words per item of the compile path's back half, on the work cells,
   counting blocks allocated on the major heap: register allocation
   under 80 per selected item (the list-and-[Hashtbl] allocator took
   294-469 minor words) and assembly under 40 per item (the [Hashtbl]
   assembler took 48-58). *)
let test_codegen_allocation () =
  List.iter
    (fun (what, (m : Modul.t)) ->
      let sels = List.map (Isel.select m) m.Modul.funcs in
      let items = List.fold_left (fun n s -> n + List.length s.Isel.items) 0 sels in
      let words =
        Pin_modules.allocated_words (fun () ->
            List.map (fun s -> Regalloc.allocate ~slot_base:s.Isel.alloca_bytes s.Isel.items) sels)
      in
      let per = words /. float_of_int items in
      Alcotest.(check bool)
        (Printf.sprintf "%s: regalloc %.1f words per item < 80" what per)
        true (per < 80.0);
      let units = List.map (fun f -> fst (Codegen.lower_func m f)) m.Modul.funcs in
      let items = List.fold_left (fun n u -> n + List.length u.Asm.items) 0 units in
      let globals, data_end = Layout.place_globals m in
      let words = Pin_modules.allocated_words (fun () -> Asm.assemble ~globals ~data_end units) in
      let per = words /. float_of_int items in
      Alcotest.(check bool)
        (Printf.sprintf "%s: assemble %.1f words per item < 40" what per)
        true (per < 40.0))
    (Pin_modules.work_cells ())

let tests =
  [
    Alcotest.test_case "encode/decode roundtrip" `Quick test_encode_decode_roundtrip;
    Alcotest.test_case "branch relaxation" `Quick test_branch_relaxation;
    Alcotest.test_case "emulator arithmetic" `Quick test_emulator_arith;
    Alcotest.test_case "regalloc spilling" `Quick test_regalloc_spilling;
    Alcotest.test_case "values survive calls" `Quick test_values_survive_calls;
    Alcotest.test_case "fallthrough elision" `Quick test_fallthrough_elision;
    QCheck_alcotest.to_alcotest prop_codegen_matches_reference;
    Alcotest.test_case "regalloc and assembler = reference on the suite" `Quick
      test_codegen_suite;
    Alcotest.test_case "assembler = reference on hand-written units" `Quick
      test_assemble_units;
    Alcotest.test_case "regalloc and assembler allocation per item" `Quick
      test_codegen_allocation;
  ]
