(** Differential equivalence of the decoded Valida frame machine against
    the reference interpreter.

    {!Zkopt_valida.Vexec}, the library's one Valida executor, decodes a
    program once into flat int arrays and runs it on unboxed [int64]
    cells.  Its contract is that every result field, every trap and
    failure message, fuel starvation and every sink event are bit for
    bit those of the boxed interpreter it replaced, kept as
    {!Zkopt_oracle.Ref_vexec.run}.  These tests push random
    {!Randprog} programs, every suite program at baseline, -O3 and
    -O3(zkvm), and hand-assembled programs through both, under
    every injected fault and on a config whose tables fill after a few
    dozen rows, so multi-segment runs, boundaries on returns and the
    dropped-rows fault all fire; and they bound the machine's
    allocation. *)

open Zkopt_ir
open Zkopt_core
module Machine = Zkopt_zkvm.Machine
module Emulator = Zkopt_riscv.Emulator
module Vexec = Zkopt_valida.Vexec
module Visa = Zkopt_valida.Visa
module Vconfig = Zkopt_valida.Vconfig
module Vlower = Zkopt_valida.Vlower
module Ref_vexec = Zkopt_oracle.Ref_vexec
module Workload = Zkopt_workloads.Workload

let all_faults =
  [
    (None, "none");
    (Some Machine.Silent_halt_on_boundary_jalr, "silent-halt");
    (Some Machine.Dropped_page_out, "dropped-rows");
    (Some Machine.Truncated_final_segment, "truncated-final");
    (Some Machine.Corrupt_exit_value, "corrupt-exit");
  ]

(* Tables fill after 64 rows: a few dozen instructions per segment. *)
let small =
  { Vconfig.valida with Vconfig.name = "valida-small"; table_limit = 64 }

let configs = [ Vconfig.valida; small ]

(* A sink recording every event it is sent, in order. *)
type event =
  | Retire of int32 * Zkopt_riscv.Isa.t * int
  | Precompile of int32 * string * int
  | Segment of int32 * int * int

let recorder () =
  let events = ref [] in
  let sink =
    Machine.sink
      ~on_retires:
        (Machine.iter_retires (fun ~pc ins ~cost ->
             events := Retire (pc, ins, cost) :: !events))
      ~on_precompile:(fun ~pc ~name ~cost ->
        events := Precompile (pc, name, cost) :: !events)
      ~on_segment:(fun ~pc ~user ~paging ->
        events := Segment (pc, user, paging) :: !events)
      ()
  in
  (events, sink)

(* Both executors share exception types; capture them so starvation,
   traps and memory failures compare alongside normal completion. *)
type outcome = Done of Vexec.result | Raised of string

let outcome run =
  match run () with
  | r -> Done r
  | exception Emulator.Trap m -> Raised ("trap: " ^ m)
  | exception Emulator.Out_of_fuel n -> Raised (Printf.sprintf "out-of-fuel %d" n)
  | exception Failure m -> Raised ("failure: " ^ m)
  | exception Invalid_argument m -> Raised ("invalid: " ^ m)

let show = function
  | Raised m -> "raised " ^ m
  | Done r ->
    Printf.sprintf
      "exit=%Ld total=%d cpu=%d alu=%d mem=%d retired=%d rd=%d wr=%d pre=%d \
       faulted=%b segs=[%s]"
      r.Vexec.exit_value r.Vexec.total_rows r.Vexec.cpu_rows r.Vexec.alu_rows
      r.Vexec.mem_rows r.Vexec.retired r.Vexec.mem_read_rows
      r.Vexec.mem_write_rows r.Vexec.precompile_calls r.Vexec.faulted
      (String.concat ";"
         (List.map
            (fun (s : Vexec.segment) ->
              Printf.sprintf "%d/%d/%d" s.Vexec.cpu_rows s.Vexec.alu_rows
                s.Vexec.mem_rows)
            r.Vexec.segments))

(* The result record is immutable ints, an int64, a bool and a list of
   int records, so structural equality is field-for-field equality. *)
let same a b =
  match (a, b) with
  | Done x, Done y -> x = y
  | Raised x, Raised y -> String.equal x y
  | _ -> false

(* [None] when the machine matches the reference on [p] under [cfg],
   [fault] and [fuel], with no sink and with a recording sink: the same
   outcome, the same events in the same order, and a sink that perturbs
   nothing. *)
let disagreement ?fault ?fuel what cfg (p : Visa.program) =
  let code = Vexec.decode cfg p in
  let want = outcome (fun () -> Ref_vexec.run ?fault ?fuel cfg p) in
  let got = outcome (fun () -> Vexec.run ?fault ?fuel code) in
  let want_events, want_sink = recorder () in
  let got_events, got_sink = recorder () in
  let want_sinked =
    outcome (fun () -> Ref_vexec.run ?fault ?fuel ~sink:want_sink cfg p)
  in
  let got_sinked = outcome (fun () -> Vexec.run ?fault ?fuel ~sink:got_sink code) in
  if not (same want got) then
    Some (Printf.sprintf "%s:\n  reference: %s\n  machine:   %s" what (show want) (show got))
  else if not (same want_sinked got_sinked && same got got_sinked) then
    Some
      (Printf.sprintf "%s with a sink:\n  reference: %s\n  machine:   %s\n  plain:     %s"
         what (show want_sinked) (show got_sinked) (show got))
  else if !want_events <> !got_events then
    Some
      (Printf.sprintf "%s: sink events differ (%d vs %d)" what
         (List.length !want_events) (List.length !got_events))
  else None

let random_program seed budget =
  let knobs =
    { Randprog.default_knobs with
      Randprog.budget; calls = true; memory = true; wide = true }
  in
  let build () = Randprog.generate ~knobs ~seed () in
  Vlower.lower (Measure.prepare_ir ~build Profile.Baseline)

let prop_matches_reference =
  QCheck.Test.make
    ~name:"valida machine = reference on random programs, every fault"
    ~count:10
    QCheck.(pair (int_range 1 100_000) (int_range 20 160))
    (fun (seed, budget) ->
      let p = random_program seed budget in
      List.for_all
        (fun cfg ->
          List.for_all
            (fun (fault, fname) ->
              match
                disagreement ?fault
                  (Printf.sprintf "seed %d budget %d / %s / fault %s" seed budget
                     cfg.Vconfig.name fname)
                  cfg p
              with
              | None -> true
              | Some m -> QCheck.Test.fail_report m)
            all_faults)
        configs)

let prop_fuel_starvation =
  QCheck.Test.make ~name:"valida fuel starvation raises identically" ~count:10
    QCheck.(pair (int_range 1 100_000) (int_range 1 500))
    (fun (seed, fuel) ->
      let p = random_program seed 60 in
      match
        disagreement ~fuel (Printf.sprintf "seed %d fuel %d" seed fuel) small p
      with
      | None -> true
      | Some m -> QCheck.Test.fail_report m)

(* [code] as main's body: one frame of 16 cells, no globals. *)
let hand_assembled code : Visa.program =
  let funcs = Hashtbl.create 2 in
  Hashtbl.replace funcs "main"
    { Visa.entry = 0; frame_bytes = 128; ncells = 16; params = []; ret_ty = Some Ty.I32 };
  {
    Visa.code;
    srcmap = Array.make (Array.length code) ("main", "entry");
    funcs;
    globals = Hashtbl.create 1;
    global_inits = [];
    data_end = 0l;
    main_entry = 0;
    main_frame = 128;
    stats = [ ("main", Array.length code) ];
  }

let test_hand_assembled () =
  let call ?(ret = Some 3) ~target ~params ~args () =
    Visa.Call
      {
        Visa.target;
        callee = "f";
        caller_frame = 128;
        callee_frame = 64;
        params;
        args;
        ret;
        ret_ty = Ty.I32;
      }
  in
  let unpriced = { Vconfig.valida with Vconfig.name = "unpriced"; precompile_costs = [] } in
  let cases =
    [
      ( "misaligned I32 load",
        Vconfig.valida,
        [| Visa.Load (Ty.I32, 2, Visa.Const 0x1002L); Visa.Ret None |],
        "raised failure: Memory: misaligned word access at 0x00001002" );
      ( "misaligned I64 store",
        Vconfig.valida,
        [| Visa.Store (Ty.I64, Visa.Const 0x2006L, Visa.Const 7L); Visa.Ret None |],
        "raised failure: Memory: misaligned word access at 0x00002006" );
      ( "pc out of range",
        Vconfig.valida,
        [| Visa.Jump 9 |],
        "raised trap: pc 9 out of code range" );
      ( "return to a non-call site",
        Vconfig.valida,
        (* cell 2 := the address of main's saved-pc cell; forge it *)
        [| Visa.Frame (2, 8);
           Visa.Store (Ty.I64, Visa.Cell 2, Visa.Const 2L);
           Visa.Ret None |],
        "raised trap: return to non-call site 2" );
      ( "argument count mismatch",
        Vconfig.valida,
        [| call ~target:2 ~params:[ (2, Ty.I32) ] ~args:[] (); Visa.Ret None;
           Visa.Ret None |],
        "raised trap: f: argument count mismatch (1 params, 0 args)" );
      ( "no value for a binding call",
        Vconfig.valida,
        [| call ~target:2 ~params:[ (2, Ty.I32) ] ~args:[ Visa.Const 5L ] ();
           Visa.Ret (Some (Ty.I32, Visa.Cell 3));
           Visa.Ret None |],
        "raised trap: returned no value to a binding call at 0" );
      ( "a precompile with no value for a binding",
        Vconfig.valida,
        [| Visa.Prec { name = "keccakf"; args = [ Visa.Const 0x4000L ]; ret = Some 3 };
           Visa.Ret None |],
        "raised trap: precompile keccakf returned no value to a binding call" );
      ( "unpriced precompile",
        unpriced,
        [| Visa.Prec { name = "keccakf"; args = [ Visa.Const 0x4000L ]; ret = None };
           Visa.Ret None |],
        "raised invalid: unpriced precompile \"keccakf\" on unpriced (priced: )" );
      ( "an I32 argument is normalized in the callee's frame",
        Vconfig.valida,
        (* unsigned 0xFFFFFFFF < 5 is false; the raw -1 would be true *)
        [| call ~ret:(Some 3) ~target:2 ~params:[ (2, Ty.I32) ]
             ~args:[ Visa.Const (-1L) ] ();
           Visa.Ret (Some (Ty.I32, Visa.Cell 3));
           Visa.Cmp (Ty.I32, Instr.Ult, 3, Visa.Cell 2, Visa.Const 5L);
           Visa.Ret (Some (Ty.I32, Visa.Cell 3)) |],
        "exit=0 total=17 cpu=4 alu=1 mem=12 retired=4 rd=7 wr=5 pre=0 \
         faulted=false segs=[4/1/12]" );
      ( "shift amounts are masked to the type width",
        Vconfig.valida,
        Visa.
          [|
            Bin (Ty.I32, Instr.Lshr, 2, Const 0x8000_0000L, Const 33L);
            Bin (Ty.I32, Instr.Shl, 3, Const 1L, Const 35L);
            Bin (Ty.I32, Instr.Ashr, 4, Const 0x8000_0000L, Const 36L);
            Bin (Ty.I64, Instr.Lshr, 5, Const Int64.min_int, Const 96L);
            Bin (Ty.I64, Instr.Shl, 6, Const 1L, Const 67L);
            Bin (Ty.I64, Instr.Ashr, 7, Const Int64.min_int, Const 124L);
            Bin (Ty.I32, Instr.Xor, 8, Cell 2, Cell 3);
            Bin (Ty.I32, Instr.Xor, 8, Cell 8, Cell 4);
            Bin (Ty.I64, Instr.Xor, 9, Cell 5, Cell 6);
            Bin (Ty.I64, Instr.Xor, 9, Cell 9, Cell 7);
            Cast (Instr.Trunc, 10, Cell 9);
            Bin (Ty.I32, Instr.Xor, 8, Cell 8, Cell 10);
            Ret (Some (Ty.I32, Cell 8));
          |],
        (* 0x40000008 ^ 0xf8000000 ^ low word of (0x80000008 ^ -8) *)
        "exit=3355443192 total=66 cpu=13 alu=17 mem=36 retired=13 rd=19 wr=17 \
         pre=0 faulted=false segs=[13/17/36]" );
      ( "a call, its return and the halt",
        Vconfig.valida,
        [| call ~target:3 ~params:[ (2, Ty.I64) ] ~args:[ Visa.Const (-3L) ] ();
           Visa.Bin (Ty.I32, Instr.Add, 4, Visa.Cell 3, Visa.Const 1L);
           Visa.Ret (Some (Ty.I32, Visa.Cell 4));
           Visa.Bin (Ty.I64, Instr.Mul, 3, Visa.Cell 2, Visa.Cell 2);
           Visa.Ret (Some (Ty.I64, Visa.Cell 3)) |],
        "exit=10 total=28 cpu=5 alu=3 mem=20 retired=5 rd=12 wr=8 pre=0 \
         faulted=false segs=[5/3/20]" );
    ]
  in
  List.iter
    (fun (what, cfg, code, want) ->
      let p = hand_assembled code in
      Option.iter Alcotest.fail (disagreement what cfg p);
      Alcotest.(check string) what want
        (show (outcome (fun () -> Vexec.run (Vexec.decode cfg p)))))
    cases

let profiles =
  [ Profile.Baseline; Profile.Level Zkopt_passes.Catalog.O3; Profile.Zkvm_o3 ]

(* Every suite program at Quick, under every fault on both configs.  On
   the small config the runs span many segments, so each fault has a
   boundary to act on: the test requires that a multi-segment run, a
   silent halt on a return and the dropped-rows fault each fired. *)
let test_suite_programs () =
  let multi = ref 0 and silent = ref 0 and dropped = ref 0 in
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun profile ->
          let p =
            Vlower.lower
              (Measure.prepare_ir
                 ~build:(fun () -> w.Workload.build Workload.Quick)
                 profile)
          in
          List.iter
            (fun cfg ->
              List.iter
                (fun (fault, fname) ->
                  let what =
                    Printf.sprintf "%s %s / %s / fault %s" w.Workload.name
                      (Profile.name profile) cfg.Vconfig.name fname
                  in
                  let want = outcome (fun () -> Ref_vexec.run ?fault cfg p) in
                  let got =
                    outcome (fun () -> Vexec.run ?fault (Vexec.decode cfg p))
                  in
                  if not (same want got) then
                    Alcotest.failf "%s:\n  reference: %s\n  machine:   %s" what
                      (show want) (show got);
                  match (got, fault) with
                  | Done r, None ->
                    if List.length r.Vexec.segments > 1 then incr multi
                  | Done r, Some Machine.Silent_halt_on_boundary_jalr ->
                    if r.Vexec.faulted then incr silent
                  | Done r, Some Machine.Dropped_page_out ->
                    if r.Vexec.faulted then incr dropped
                  | _ -> ())
                all_faults)
            configs)
        profiles)
    (Workload.all ());
  Alcotest.(check bool)
    (Printf.sprintf "multi-segment runs %d, silent halts %d, dropped rows %d"
       !multi !silent !dropped)
    true
    (!multi > 0 && !silent > 0 && !dropped > 0)

(* Sink events on the suite: the programs that call a precompile and a
   loop kernel, at baseline and -O3(zkvm), under every fault on the
   small config. *)
let test_suite_sinks () =
  let programs =
    "loop-sum"
    :: List.filter_map
         (fun (w : Workload.t) ->
           if w.Workload.uses_precompiles then Some w.Workload.name else None)
         (Workload.all ())
  in
  List.iter
    (fun name ->
      let w = Workload.find name in
      List.iter
        (fun profile ->
          let p =
            Vlower.lower
              (Measure.prepare_ir
                 ~build:(fun () -> w.Workload.build Workload.Quick)
                 profile)
          in
          List.iter
            (fun (fault, fname) ->
              Option.iter Alcotest.fail
                (disagreement ?fault
                   (Printf.sprintf "%s %s / fault %s" name (Profile.name profile)
                      fname)
                   small p))
            all_faults)
        [ Profile.Baseline; Profile.Zkvm_o3 ])
    programs

(* A return of per-instruction allocation shows here without timing
   noise: a no-sink run must allocate fewer words than it retires
   instructions, counting blocks that go straight to the major heap (the
   boxed reference allocates about 55 per retire).
   loop-sum is one loop; npb-ep calls a function 800 times.  Programs
   whose hot loop divides are left out: division still boxes through
   {!Eval.binop}. *)
let test_allocation () =
  List.iter
    (fun (name, want_calls) ->
      let w = Workload.find name in
      let p =
        Vlower.lower
          (Measure.prepare_ir
             ~build:(fun () -> w.Workload.build Workload.Quick)
             Profile.Baseline)
      in
      let code = Vexec.decode Vconfig.valida p in
      let calls = ref 0 in
      let count_calls =
        Machine.sink
          ~on_retires:
            (Machine.iter_retires (fun ~pc:_ ins ~cost:_ ->
                 match ins with
                 | Zkopt_riscv.Isa.Jal (rd, _) when rd = Zkopt_riscv.Isa.ra -> incr calls
                 | _ -> ()))
          ()
      in
      ignore (Vexec.run ~sink:count_calls code);
      Alcotest.(check int) (name ^ ": calls") want_calls !calls;
      let retired = ref 0 in
      let words =
        Pin_modules.allocated_words (fun () ->
            retired := (Vexec.run code).Vexec.retired)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f words < %d retired" name words !retired)
        true
        (words < float_of_int !retired))
    [ ("loop-sum", 0); ("npb-ep", 800) ]

let tests =
  List.map QCheck_alcotest.to_alcotest [ prop_matches_reference; prop_fuel_starvation ]
  @ [
      Alcotest.test_case "valida machine = reference on hand-assembled programs"
        `Quick test_hand_assembled;
      Alcotest.test_case "valida machine = reference on the suite, every fault"
        `Quick test_suite_programs;
      Alcotest.test_case "valida sink events = reference on the suite" `Quick
        test_suite_sinks;
      Alcotest.test_case "valida machine allocates less than a word per retire"
        `Quick test_allocation;
    ]
