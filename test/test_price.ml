(** Pricing an unpriced run, and how often an RV32 artifact executes.

    {!Zkopt_zkvm.Vm.price} turns the tally of one unpriced run
    ({!Zkopt_zkvm.Machine.tally}) into a config's metrics.  Its contract:
    a [Some] equals {!Zkopt_zkvm.Vm.measure} on the same code and fuel on
    every field, the full {!Zkopt_zkvm.Machine.result} included; it is
    [None] exactly when the priced run has more than one segment; and
    the unpriced run raises what the priced one raises, with pricing
    raising the priced machine's [Invalid_argument] for a precompile the
    config does not price.  These tests hold it to that on every suite
    program at Quick under five profiles and on random programs, on
    risc0, sp1 and a copy of sp1 with 2^10-cycle segments, and count the
    runs an RV32 artifact makes through the machine's run counters. *)

open Zkopt_ir
open Zkopt_core
module Config = Zkopt_zkvm.Config
module Machine = Zkopt_zkvm.Machine
module Vm = Zkopt_zkvm.Vm
module Emulator = Zkopt_riscv.Emulator
module Isa = Zkopt_riscv.Isa
module Backend = Zkopt_backend.Backend
module Rv32 = Zkopt_backend.Rv32
module Workload = Zkopt_workloads.Workload

(* sp1 with 2^10-cycle segments: almost every run spans several *)
let short = { Config.sp1 with Config.name = "sp1-short"; segment_limit = 1 lsl 10 }

(* a config that prices no precompile *)
let unpriced = { Config.sp1 with Config.name = "unpriced"; precompile_costs = [] }

let configs = [ Config.risc0; Config.sp1; short; unpriced ]

let prepare name profile =
  let w = Workload.find name in
  Measure.prepare ~build:(fun () -> w.Workload.build Workload.Quick) profile

(* [f ()], or what it raised, in words both paths share *)
let catch f =
  match f () with
  | v -> Ok v
  | exception Emulator.Trap m -> Error ("trap: " ^ m)
  | exception Emulator.Out_of_fuel n -> Error (Printf.sprintf "out-of-fuel %d" n)
  | exception Invalid_argument m -> Error ("invalid argument: " ^ m)
  | exception Failure m -> Error ("failure: " ^ m)

let show = function
  | Ok (m : Vm.metrics) ->
    Printf.sprintf "cycles=%d segments=%d paging=%d exit=%ld retired=%d"
      m.Vm.cycles m.Vm.segments m.Vm.paging_cycles m.Vm.exit_value
      m.Vm.exec.Machine.retired
  | Error e -> "raised " ^ e

(* [None] when pricing [c]'s one unpriced run under each config agrees
   with that config's priced run at [fuel]. *)
let disagreement ?fuel ?(configs = configs) what (c : Measure.compiled) =
  let cg = c.Measure.codegen and m = c.Measure.modul in
  let tally = catch (fun () -> Machine.tally ?fuel (Machine.decode Config.risc0 cg m)) in
  List.find_map
    (fun cfg ->
      let what = what ^ " / " ^ cfg.Config.name in
      let want = catch (fun () -> Vm.measure ?fuel cfg cg m) in
      let got = Result.bind tally (fun t -> catch (fun () -> Vm.price cfg t)) in
      match (want, got) with
      | Ok w, Ok (Some p) when w = p && w.Vm.segments = 1 -> None
      | Ok w, Ok None when w.Vm.segments > 1 -> None
      | Error a, Error b when String.equal a b -> None
      | _, Ok None ->
        Some (Printf.sprintf "%s: no price for a one-segment run %s" what (show want))
      | _, Ok (Some p) ->
        Some (Printf.sprintf "%s:\n  measured: %s\n  priced:   %s" what (show want)
                (show (Ok p)))
      | _, Error e ->
        Some (Printf.sprintf "%s:\n  measured: %s\n  unpriced run raised %s" what
                (show want) e))
    configs

let test_suite () =
  let priced = ref 0 and segmented = ref 0 in
  List.iter
    (fun (what, m) ->
      let c = Measure.compile_ir m in
      Option.iter Alcotest.fail (disagreement what c);
      let t = Machine.tally (Machine.decode Config.risc0 c.Measure.codegen m) in
      List.iter
        (fun cfg ->
          match Vm.price cfg t with
          | Some _ -> incr priced
          | None -> incr segmented
          | exception Invalid_argument _ -> ())
        [ Config.risc0; Config.sp1; short ])
    (Lazy.force Pin_modules.suite);
  (* both answers occur: the short config splits most runs, the real
     ones split none at Quick *)
  Alcotest.(check bool)
    (Printf.sprintf "%d priced and %d segmented (artifact, config) pairs" !priced
       !segmented)
    true
    (!priced > 0 && !segmented > 0)

let prop_random =
  QCheck.Test.make ~name:"price = priced machine on random programs, starved too"
    ~count:12
    QCheck.(pair (int_range 1 100_000) (int_range 1 500))
    (fun (seed, fuel) ->
      let c = Measure.compile_ir (Pin_modules.random seed) in
      match
        ( disagreement (Printf.sprintf "seed %d" seed) c,
          disagreement ~fuel (Printf.sprintf "seed %d fuel %d" seed fuel) c )
      with
      | None, None -> true
      | Some m, _ | None, Some m -> QCheck.Test.fail_report m)

(* Traps, starvation and unpriced precompiles, each on both paths. *)
let test_raises () =
  List.iter
    (fun (what, code) ->
      Option.iter Alcotest.fail (disagreement what (Test_cpu.hand_assembled code)))
    [
      ("unknown syscall", [| Isa.Opi (Isa.ADDI, Isa.a7, 0, 999); Isa.Ecall |]);
      ("pc out of range", [| Isa.Opi (Isa.ADDI, Isa.a0, 0, 1); Isa.Jal (0, 64) |]);
      ( "misaligned word load",
        [| Isa.Opi (Isa.ADDI, Isa.a0, 0, 0x102); Isa.Load (Isa.LW, Isa.a0 + 1, Isa.a0, 0) |] );
    ];
  (* every precompile program: complete (the unpriced config raises),
     starved halfway, and one retire short.  A starved run reports its
     starvation, and the priced machine, on a config that leaves a
     precompile unpriced, that precompile's first call if it came
     first: the one order the two paths do not share, which no config
     of the registry can reach *)
  List.iter
    (fun name ->
      let c = prepare name Profile.Baseline in
      let t =
        Machine.tally (Machine.decode Config.risc0 c.Measure.codegen c.Measure.modul)
      in
      Alcotest.(check bool) (name ^ " calls a precompile") true
        (t.Machine.precompile_calls <> []);
      List.iter
        (fun fuel ->
          let what =
            Printf.sprintf "%s fuel %s" name
              (Option.fold ~none:"default" ~some:string_of_int fuel)
          in
          let configs = if fuel = None then configs else [ Config.risc0; Config.sp1; short ] in
          Option.iter Alcotest.fail (disagreement ?fuel ~configs what c))
        [ None; Some (t.Machine.retired / 2); Some (t.Machine.retired - 1) ])
    Test_cpu.precompile_programs

(* The unpriced loop allocates no word per retire: its state, the page
   tables and the per-instruction counts are made once per run. *)
let test_allocation () =
  List.iter
    (fun name ->
      let c = prepare name Profile.Baseline in
      let code = Machine.decode Config.risc0 c.Measure.codegen c.Measure.modul in
      let retired = ref 0 in
      let words =
        Pin_modules.allocated_words (fun () ->
            retired := (Machine.tally code).Machine.retired)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f words < %d retired" name words !retired)
        true
        (words < float_of_int !retired))
    [ "npb-is"; "ecdsa-verify" ]

(* ---- runs an RV32 artifact makes ---------------------------------------- *)

(* the machine's priced and unpriced runs while [f] runs *)
let runs f =
  let p = Atomic.get Machine.priced_runs and u = Atomic.get Machine.unpriced_runs in
  let v = f () in
  (v, Atomic.get Machine.priced_runs - p, Atomic.get Machine.unpriced_runs - u)

let check_runs what ~priced ~unpriced (_, p, u) =
  Alcotest.(check (pair int int)) (what ^ ": (priced, unpriced) runs")
    (priced, unpriced) (p, u)

(* the artifact's measurement equals a priced run's *)
let check_priced what cfg (c : Measure.compiled) ?fuel (r : Backend.measurement) =
  let raw = Measure.run ?fuel cfg c in
  Alcotest.(check bool) (what ^ ": zk metrics = the priced machine's") true
    (r.Backend.zk = Measure.zk_of_vm raw);
  Alcotest.(check (list int)) (what ^ ": padded segments")
    (List.map
       (fun (s : Machine.segment) ->
         Zkopt_zkvm.Prover.padded ~min_po2:cfg.Config.min_po2
           (s.Machine.user_cycles + s.Machine.paging_cycles))
       raw.Vm.exec.Machine.segments)
    r.Backend.seg_padded

let cpu_of (a : Backend.compiled) =
  match a.Backend.measure_cpu with Some run -> run | None -> assert false

let test_one_run_per_fuel () =
  let c = prepare "sha2-bench" Profile.Baseline in
  let fuel = 400_000_000 in
  (* the harness's order: the CPU model, then risc0, then sp1 *)
  let a = Rv32.of_compiled c in
  let ((cpu, r0, s1), _, _) as counted =
    runs (fun () ->
        let cpu = cpu_of a ~fuel () in
        let r0 = a.Backend.measure ~vm:"risc0" ~fuel () in
        let s1 = a.Backend.measure ~vm:"sp1" ~fuel () in
        (cpu, r0, s1))
  in
  check_runs "CPU model, risc0, sp1" ~priced:0 ~unpriced:1 counted;
  Alcotest.(check bool) "CPU metrics = run_cpu's" true (cpu = Measure.run_cpu ~fuel c);
  check_priced "risc0" Config.risc0 c ~fuel r0;
  check_priced "sp1" Config.sp1 c ~fuel s1;
  (* another fuel is another run, whose tally serves both configs *)
  let ((r0, _), _, _) as counted =
    runs (fun () ->
        let r0 = a.Backend.measure ~vm:"risc0" () in
        (r0, a.Backend.measure ~vm:"sp1" ()))
  in
  check_runs "risc0 and sp1 at the default fuel" ~priced:0 ~unpriced:1 counted;
  check_priced "risc0 at the default fuel" Config.risc0 c r0;
  (* zkVM first, then the CPU model: the model's run is its own *)
  let a = Rv32.of_compiled c in
  check_runs "risc0, sp1, CPU model" ~priced:0 ~unpriced:2
    (runs (fun () ->
         ignore (a.Backend.measure ~vm:"risc0" ());
         ignore (a.Backend.measure ~vm:"sp1" ());
         ignore (cpu_of a ())));
  (* a starved call raises and keeps nothing *)
  let a = Rv32.of_compiled c in
  check_runs "a starved call" ~priced:0 ~unpriced:1
    (runs (fun () ->
         match a.Backend.measure ~vm:"risc0" ~fuel:100 () with
         | _ -> Alcotest.fail "fuel 100 must starve"
         | exception Emulator.Out_of_fuel 100 -> ()))

(* a loop of [n] iterations, each a few retires *)
let loop n () =
  let m = Modul.create () in
  ignore
    (Builder.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let s = Builder.var b Ty.I32 (Builder.imm 0) in
         Builder.for_ b ~from:(Builder.imm 0) ~bound:(Builder.imm n) (fun i ->
             Builder.set b Ty.I32 s (Builder.add b (Value.Reg s) i));
         Builder.ret b (Some (Value.Reg s))));
  m

let test_priced_machine_calls () =
  let c = prepare "sha2-bench" Profile.Baseline in
  let a = Rv32.of_compiled c in
  ignore (cpu_of a ());
  check_runs "a faulted call" ~priced:1 ~unpriced:0
    (runs (fun () ->
         a.Backend.measure ~vm:"risc0" ~fault:Machine.Dropped_page_out ()));
  let ((r, _, _) as counted) =
    runs (fun () -> a.Backend.measure ~vm:"sp1" ~sink:(Machine.sink ()) ())
  in
  check_runs "a sinked call" ~priced:1 ~unpriced:0 counted;
  check_priced "sinked sp1" Config.sp1 c r;
  (* a sinked CPU-model call keeps no tally *)
  let a = Rv32.of_compiled c in
  check_runs "a sinked CPU model, then risc0" ~priced:0 ~unpriced:2
    (runs (fun () ->
         ignore (cpu_of a ~sink:(Machine.sink ()) ());
         ignore (a.Backend.measure ~vm:"risc0" ())));
  (* a run spanning two risc0 segments and one sp1 segment: the tally
     is kept, and risc0's price falls back *)
  let c = Measure.prepare ~build:(loop 200_000) Profile.Baseline in
  let a = Rv32.of_compiled c in
  let ((r0, s1), _, _) as counted =
    runs (fun () ->
        ignore (cpu_of a ());
        let r0 = a.Backend.measure ~vm:"risc0" () in
        (r0, a.Backend.measure ~vm:"sp1" ()))
  in
  Alcotest.(check (pair int int)) "segments on risc0 and sp1" (2, 1)
    (r0.Backend.zk.Measure.segments, s1.Backend.zk.Measure.segments);
  check_runs "a multi-segment risc0 run" ~priced:1 ~unpriced:1 counted;
  check_priced "multi-segment risc0" Config.risc0 c r0;
  check_priced "one-segment sp1" Config.sp1 c s1;
  (* a run past every config's segment limit: the unpriced run that
     risc0's call starts stops at the longest limit, and both configs
     take the priced machine *)
  Alcotest.(check bool) "every instruction costs a cycle under every config"
    true
    (List.for_all
       (fun cfg ->
         List.for_all (fun k -> Config.class_cost cfg k >= 1)
           (List.init Config.n_cost_classes Fun.id))
       Config.all);
  let c' = Measure.prepare ~build:(loop 600_000) Profile.Baseline in
  let a = Rv32.of_compiled c' in
  let ((r0', s1'), _, _) as counted =
    runs (fun () ->
        let r0 = a.Backend.measure ~vm:"risc0" () in
        (r0, a.Backend.measure ~vm:"sp1" ()))
  in
  check_runs "a run past every segment limit" ~priced:2 ~unpriced:1 counted;
  Alcotest.(check bool) "it is longer than every limit" true
    (s1'.Backend.zk.Measure.segments > 1);
  check_priced "long risc0" Config.risc0 c' r0';
  check_priced "long sp1" Config.sp1 c' s1';
  (* under 2^10-cycle segments no tally of the first loop has a price *)
  let t = Machine.tally (Machine.decode Config.sp1 c.Measure.codegen c.Measure.modul) in
  Alcotest.(check bool) "no price under 2^10-cycle segments" true
    (Vm.price short t = None);
  (* a pinned artifact executes every zkVM call on the priced machine *)
  let pinned = Rv32.backend ~fixed:true short ~doc:"" in
  let a = pinned.Backend.compile (prepare "factorial" Profile.Baseline).Measure.modul in
  check_runs "a pinned artifact's CPU model, then two calls" ~priced:2 ~unpriced:1
    (runs (fun () ->
         ignore (cpu_of a ());
         ignore (a.Backend.measure ~vm:"sp1-short" ());
         ignore (a.Backend.measure ~vm:"sp1-short" ())))

let tests =
  [
    Alcotest.test_case "price = priced machine on the suite" `Quick test_suite;
    QCheck_alcotest.to_alcotest prop_random;
    Alcotest.test_case "unpriced runs raise as priced ones" `Quick test_raises;
    Alcotest.test_case "unpriced mode allocates under a word per retire" `Quick
      test_allocation;
    Alcotest.test_case "an RV32 artifact runs once per fuel" `Quick
      test_one_run_per_fuel;
    Alcotest.test_case "faulted, sinked, segmented, pinned: priced machine" `Quick
      test_priced_machine_calls;
  ]
