(** Unit tests for the IR core: evaluation semantics, builder/verifier,
    printer, interpreter, and memory. *)

open Zkopt_ir
module B = Builder

let check = Alcotest.check
let i64t = Alcotest.int64

(* ---- Eval ---------------------------------------------------------- *)

let test_eval_div_semantics () =
  (* RISC-V M semantics: x/0 = -1 (all ones), x%0 = x, overflow cases *)
  check i64t "sdiv32 by zero" 0xFFFF_FFFFL (Eval.binop Ty.I32 Instr.Div 5L 0L);
  check i64t "srem32 by zero" 5L (Eval.binop Ty.I32 Instr.Rem 5L 0L);
  check i64t "sdiv32 overflow" 0x8000_0000L
    (Eval.binop Ty.I32 Instr.Div 0x8000_0000L 0xFFFF_FFFFL);
  check i64t "srem32 overflow" 0L
    (Eval.binop Ty.I32 Instr.Rem 0x8000_0000L 0xFFFF_FFFFL);
  check i64t "sdiv64 by zero" (-1L) (Eval.binop Ty.I64 Instr.Div 5L 0L);
  check i64t "sdiv64 overflow" Int64.min_int
    (Eval.binop Ty.I64 Instr.Div Int64.min_int (-1L));
  check i64t "udiv64 by zero" (-1L) (Eval.binop Ty.I64 Instr.Udiv 7L 0L)

let test_eval_shifts_masked () =
  check i64t "shl32 masks to 31" 2L (Eval.binop Ty.I32 Instr.Shl 1L 33L);
  check i64t "shl64 masks to 63" 2L (Eval.binop Ty.I64 Instr.Shl 1L 65L);
  check i64t "ashr32 sign" 0xFFFF_FFFFL
    (Eval.binop Ty.I32 Instr.Ashr 0x8000_0000L 31L)

let test_eval_mulhu () =
  check i64t "mulhu32 max"
    0xFFFF_FFFEL
    (Eval.binop Ty.I32 Instr.Mulhu 0xFFFF_FFFFL 0xFFFF_FFFFL);
  check i64t "mulhu32 small" 0L (Eval.binop Ty.I32 Instr.Mulhu 10L 10L);
  (* 64-bit: (2^63)*(2) >> 64 = 1 *)
  check i64t "mulhu64" 1L
    (Eval.binop Ty.I64 Instr.Mulhu Int64.min_int 2L)

let test_eval_cmp () =
  check i64t "ult i32" 1L (Eval.cmp Ty.I32 Instr.Ult 1L 0xFFFF_FFFFL);
  check i64t "slt i32 signed" 1L (Eval.cmp Ty.I32 Instr.Slt 0xFFFF_FFFFL 0L);
  check i64t "ult i64" 1L (Eval.cmp Ty.I64 Instr.Ult 1L (-1L));
  check i64t "sge i64" 1L (Eval.cmp Ty.I64 Instr.Sge 0L (-1L))

(* ---- Builder + verifier ------------------------------------------- *)

let build_sum_program n =
  let m = Modul.create () in
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let s = B.var b Ty.I32 (B.imm 0) in
         B.for_ b ~from:(B.imm 0) ~bound:(B.imm n) (fun i ->
             B.set b Ty.I32 s (B.add b (Value.Reg s) i));
         B.ret b (Some (Value.Reg s))));
  m

let test_builder_loop () =
  let m = build_sum_program 10 in
  Verify.check m;
  check i64t "sum 0..9" 45L (Interp.checksum m)

let test_verifier_rejects_bad_label () =
  let m = Modul.create () in
  let f = Func.create ~name:"main" ~params:[] ~ret:(Some Ty.I32) in
  Func.add_block f (Block.create ~term:(Instr.Br "nowhere") "entry");
  Modul.add_func m f;
  Alcotest.check_raises "dangling label"
    (Verify.Ill_formed "main: block entry branches to unknown label nowhere")
    (fun () -> Verify.check m)

let test_verifier_rejects_width_mismatch () =
  let m = Modul.create () in
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let x = B.var b Ty.I64 (B.imm 1) in
         (* 32-bit add of a 64-bit register *)
         let bad = B.add b (Value.Reg x) (B.imm 1) in
         B.ret b (Some bad)));
  Alcotest.(check bool) "ill-formed" false (Verify.is_well_formed m)

let test_printer_roundtrip_smoke () =
  let m = build_sum_program 5 in
  let text = Printer.modul m in
  Alcotest.(check bool) "mentions main" true
    (Astring_contains.contains text "@main");
  Alcotest.(check bool) "mentions icmp" true
    (Astring_contains.contains text "icmp")

(* ---- Printer against its reference --------------------------------- *)

module Ref_printer = Zkopt_oracle.Ref_printer

(* [modul], every [func], and every instruction and terminator print the
   reference's bytes. *)
let printer_differs (m : Modul.t) =
  let differ what a b = if String.equal a b then [] else [ what ] in
  differ "modul" (Printer.modul m) (Ref_printer.modul m)
  @ List.concat_map
      (fun (f : Func.t) ->
        differ f.Func.name (Printer.func f) (Ref_printer.func f)
        @ List.concat_map
            (fun (b : Block.t) ->
              List.concat_map
                (fun i -> differ (Ref_printer.instr i) (Printer.instr i) (Ref_printer.instr i))
                b.Block.instrs
              @ differ (Ref_printer.term b.Block.term) (Printer.term b.Block.term)
                  (Ref_printer.term b.Block.term))
            f.Func.blocks)
      m.Modul.funcs

let prop_printer_matches_reference =
  QCheck.Test.make ~name:"printer = reference on random programs" ~count:40
    QCheck.(int_range 1 100_000)
    (fun seed -> printer_differs (Pin_modules.random seed) = [])

let test_printer_suite () =
  List.iter
    (fun (what, m) -> Alcotest.(check (list string)) what [] (printer_differs m))
    (Lazy.force Pin_modules.suite)

(* Operands the generated programs rarely reach: extreme immediates and
   offsets, a call with no arguments, every cast. *)
let test_printer_edges () =
  let r = Value.Reg 7 in
  List.iter
    (fun i -> check Alcotest.string "instr" (Ref_printer.instr i) (Printer.instr i))
    [ Instr.Mov { dst = 0; ty = Ty.I64; src = Value.Imm Int64.min_int };
      Instr.Mov { dst = 1; ty = Ty.I64; src = Value.Imm Int64.max_int };
      Instr.Mov { dst = 2; ty = Ty.I32; src = Value.Imm (-1L) };
      Instr.Addr { dst = 3; base = Value.Glob "g"; index = r; scale = -4; offset = min_int };
      Instr.Alloca { dst = 4; size = max_int };
      Instr.Call { dst = None; callee = "f"; args = [] };
      Instr.Precompile { dst = Some 5; name = "p"; args = [ r; Value.Imm 0L; Value.Glob "h" ] };
      Instr.Cast { dst = 6; op = Instr.Zext; src = r };
      Instr.Cast { dst = 6; op = Instr.Sext; src = r };
      Instr.Cast { dst = 6; op = Instr.Trunc; src = r } ];
  List.iter
    (fun t -> check Alcotest.string "term" (Ref_printer.term t) (Printer.term t))
    [ Instr.Ret None; Instr.Ret (Some (Value.Imm (-5L))); Instr.Br "b";
      Instr.Cbr { cond = r; if_true = "t"; if_false = "f" } ]

(* The hand-written number writers print what [Printf] does. *)
let prop_number_writers =
  QCheck.Test.make ~name:"printer number writers = Printf" ~count:1000
    QCheck.(triple int32 int64 int)
    (fun (w, i, n) ->
      let via add x =
        let buf = Buffer.create 16 in
        add buf x;
        Buffer.contents buf
      in
      String.equal (via Printer.add_hex32 w) (Printf.sprintf "%lx" w)
      && String.equal (via Printer.add_int64 i) (Int64.to_string i)
      && String.equal (via Printer.add_int n) (string_of_int n)
      && List.for_all
           (fun w -> String.equal (via Printer.add_hex32 w) (Printf.sprintf "%lx" w))
           [ 0l; 1l; -1l; Int32.min_int; Int32.max_int ]
      && List.for_all
           (fun n -> String.equal (via Printer.add_int n) (string_of_int n))
           [ 0; -1; min_int; max_int ])

(* ---- Memory -------------------------------------------------------- *)

let test_memory_word_access () =
  let mem = Memory.create () in
  Memory.store32 mem 0x1000l 0xDEADBEEFl;
  Alcotest.(check int32) "load32" 0xDEADBEEFl (Memory.load32 mem 0x1000l);
  Memory.store64 mem 0x2000l 0x1122334455667788L;
  check i64t "load64" 0x1122334455667788L (Memory.load64 mem 0x2000l);
  Alcotest.(check int32) "low word LE" 0x55667788l (Memory.load32 mem 0x2000l)

let test_memory_misaligned_traps () =
  let mem = Memory.create () in
  Alcotest.check_raises "misaligned"
    (Failure "Memory: misaligned word access at 0x00001002") (fun () ->
      ignore (Memory.load32 mem 0x1002l))

(* ---- Interpreter --------------------------------------------------- *)

let test_interp_fuel () =
  let m = Modul.create () in
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         B.while_ b
           (fun () -> B.icmp b Instr.Eq (B.imm 0) (B.imm 0))
           (fun () -> ());
         B.ret b (Some (B.imm 0))));
  Alcotest.check_raises "fuel" Interp.Out_of_fuel (fun () ->
      ignore (Interp.run ~fuel:1000 m))

let test_interp_call_and_alloca () =
  let m = Modul.create () in
  ignore
    (B.define m "double_it" ~params:[ Ty.I32 ] ~ret:Ty.I32 (fun b ps ->
         let slot = B.alloca b 4 in
         B.store b ~addr:slot (List.nth ps 0);
         let v = B.load b slot in
         B.ret b (Some (B.add b v v))));
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         B.ret b (Some (B.callv b "double_it" [ B.imm 21 ]))));
  Verify.check m;
  check i64t "42" 42L (Interp.checksum m)

(* A call that passes fewer arguments than the callee takes traps and
   names the callee and the first missing argument. *)
let test_interp_missing_argument () =
  let m = Modul.create () in
  ignore
    (B.define m "pair" ~params:[ Ty.I32; Ty.I32 ] ~ret:Ty.I32 (fun b ps ->
         B.ret b (Some (B.add b (List.nth ps 0) (List.nth ps 1)))));
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         B.ret b (Some (B.callv b "pair" [ B.imm 1 ]))));
  Alcotest.check_raises "trap" (Interp.Trap "pair: missing argument 1") (fun () ->
      ignore (Interp.run m))

let tests =
  [
    Alcotest.test_case "eval div semantics" `Quick test_eval_div_semantics;
    Alcotest.test_case "eval shifts masked" `Quick test_eval_shifts_masked;
    Alcotest.test_case "eval mulhu" `Quick test_eval_mulhu;
    Alcotest.test_case "eval cmp" `Quick test_eval_cmp;
    Alcotest.test_case "builder loop" `Quick test_builder_loop;
    Alcotest.test_case "verifier dangling label" `Quick test_verifier_rejects_bad_label;
    Alcotest.test_case "verifier width mismatch" `Quick test_verifier_rejects_width_mismatch;
    Alcotest.test_case "printer smoke" `Quick test_printer_roundtrip_smoke;
    Alcotest.test_case "memory words" `Quick test_memory_word_access;
    Alcotest.test_case "memory misaligned" `Quick test_memory_misaligned_traps;
    Alcotest.test_case "interp fuel" `Quick test_interp_fuel;
    Alcotest.test_case "interp call+alloca" `Quick test_interp_call_and_alloca;
    Alcotest.test_case "interp missing argument traps" `Quick
      test_interp_missing_argument;
    QCheck_alcotest.to_alcotest prop_printer_matches_reference;
    Alcotest.test_case "printer = reference on the suite" `Quick test_printer_suite;
    Alcotest.test_case "printer = reference on edge operands" `Quick
      test_printer_edges;
    QCheck_alcotest.to_alcotest prop_number_writers;
  ]
