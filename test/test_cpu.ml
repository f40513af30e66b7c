(** Differential equivalence of the CPU timing model against its oracle.

    {!Zkopt_cpu.Timing.run} folds the decoded machine's CPU stream
    ({!Zkopt_zkvm.Machine.cpu}) over per-instruction tables.  Its
    contract is that every result field and every cost it attributes is
    bit-for-bit that of the historical driver, the boxed emulator under
    closure hooks, kept as {!Zkopt_oracle.Ref_cpu.run}.  These tests push
    random {!Randprog} programs, hand-assembled trapping programs and
    every suite program that calls a precompile through both; check that
    the machine's CPU stream does not depend on the config the code was
    decoded under; and bound the model's allocation. *)

open Zkopt_ir
open Zkopt_core
open Zkopt_riscv
module Timing = Zkopt_cpu.Timing
module Machine = Zkopt_zkvm.Machine
module Config = Zkopt_zkvm.Config
module Workload = Zkopt_workloads.Workload

let model ?fuel ?sink cg m = Timing.run ?fuel ?sink cg m
let oracle ?fuel ?sink cg m = Zkopt_oracle.Ref_cpu.run ?fuel ?sink cg m

(* Both drivers share exception types; capture them so starvation and
   traps compare alongside normal completion. *)
type outcome = Done of Timing.result | Raised of string

let outcome run ?fuel ?sink (c : Measure.compiled) =
  match run ?fuel ?sink c.Measure.codegen c.Measure.modul with
  | (r : Timing.result) -> Done r
  | exception Emulator.Trap m -> Raised ("trap: " ^ m)
  | exception Emulator.Out_of_fuel n -> Raised (Printf.sprintf "out-of-fuel %d" n)
  | exception Failure m -> Raised ("failure: " ^ m)

(* The outcome under a sink, the per-pc sums of the costs the sink was
   charged (as float bits), and their total. *)
let observe run ?fuel c =
  let costs = Hashtbl.create 256 and total = ref 0.0 in
  let on_cpu_retire ~pc _ins ~cost =
    let sum = Option.value (Hashtbl.find_opt costs pc) ~default:0.0 in
    Hashtbl.replace costs pc (sum +. cost);
    total := !total +. cost
  in
  let o = outcome run ?fuel ~sink:(Machine.sink ~on_cpu_retire ()) c in
  let sums =
    Hashtbl.fold (fun pc s acc -> (pc, Int64.bits_of_float s) :: acc) costs []
  in
  (o, List.sort compare sums, !total)

let bits = Int64.bits_of_float

let same a b =
  match (a, b) with
  | Done (x : Timing.result), Done (y : Timing.result) ->
    Int64.equal (bits x.cycles) (bits y.cycles)
    && Int64.equal (bits x.time_s) (bits y.time_s)
    && x.retired = y.retired
    && x.cache_hits = y.cache_hits
    && x.cache_misses = y.cache_misses
    && x.mispredicts = y.mispredicts
    && Int32.equal x.exit_value y.exit_value
  | Raised x, Raised y -> String.equal x y
  | _ -> false

let show = function
  | Done (r : Timing.result) ->
    Printf.sprintf
      "cycles=%h time=%h retired=%d hits=%d misses=%d mispredicts=%d exit=%ld"
      r.cycles r.time_s r.retired r.cache_hits r.cache_misses r.mispredicts
      r.exit_value
  | Raised m -> "raised " ^ m

(* [None] when the model matches the oracle on [c] — outcome and per-pc
   attributed costs — its unobserved run matches its observed one, and a
   completed run's attributed costs add up to its cycles. *)
let disagreement ?fuel what c =
  let want, want_sums, _ = observe oracle ?fuel c in
  let got, got_sums, total = observe model ?fuel c in
  let plain = outcome model ?fuel c in
  if not (same want got) then
    Some (Printf.sprintf "%s:\n  oracle: %s\n  model:  %s" what (show want) (show got))
  else if not (same got plain) then
    Some (Printf.sprintf "%s: the sink perturbed the run\n  observed: %s\n  plain:    %s"
            what (show got) (show plain))
  else if want_sums <> got_sums then
    Some (Printf.sprintf "%s: per-pc costs differ (%d vs %d pcs)" what
            (List.length want_sums) (List.length got_sums))
  else
    match got with
    | Done r when not (Int64.equal (bits total) (bits r.Timing.cycles)) ->
      Some (Printf.sprintf "%s: attributed costs sum to %h, cycles are %h" what
              total r.Timing.cycles)
    | _ -> None

let compile seed =
  let build () = Randprog.generate ~seed () in
  Measure.prepare ~build Profile.Baseline

let prop_matches_oracle =
  QCheck.Test.make ~name:"cpu model = oracle on random programs, starved too"
    ~count:8
    QCheck.(pair (int_range 1 100_000) (int_range 1 500))
    (fun (seed, fuel) ->
      let c = compile seed in
      match
        ( disagreement (Printf.sprintf "seed %d" seed) c,
          disagreement ~fuel (Printf.sprintf "seed %d fuel %d" seed fuel) c )
      with
      | None, None -> true
      | Some m, _ | None, Some m -> QCheck.Test.fail_report m)

(* [code] assembled at 0x1000 with [main] at its first instruction. *)
let hand_assembled code : Measure.compiled =
  let base = 0x1000l in
  let symbols = Hashtbl.create 1 in
  Hashtbl.replace symbols "main" base;
  let program =
    { Asm.code; base; symbols; data_end = base;
      srcmap = Array.make (Array.length code) ("main", "") }
  in
  { Measure.modul = Modul.create ();
    codegen = { Codegen.program; stats = [] };
    static_instrs = Array.length code }

let test_hand_assembled () =
  let cases =
    [
      (* the load issues at 1.25 and misses, so the port is busy until
         91.25; the halt issues at 1.75 and is charged the 89.5-cycle
         drain *)
      ( "memory drain after the last retire",
        [| Isa.Lui (Isa.a0, 0x100000l); Isa.Load (Isa.LW, Isa.a0 + 1, Isa.a0, 0);
           Isa.Opi (Isa.ADDI, Isa.a7, 0, 0); Isa.Ecall |],
        "cycles=0x1.6dp+6 time=0x1.0546f5154eaa1p-25 retired=4 hits=0 \
         misses=1 mispredicts=0 exit=1048576" );
      ( "unknown syscall",
        [| Isa.Opi (Isa.ADDI, Isa.a7, 0, 999); Isa.Ecall |],
        "raised trap: unknown syscall 999" );
      ( "pc out of range",
        [| Isa.Opi (Isa.ADDI, Isa.a0, 0, 1); Isa.Jal (0, 64) |],
        "raised trap: pc out of range: 0x00001044" );
      ( "misaligned word load",
        [| Isa.Opi (Isa.ADDI, Isa.a0, 0, 0x102); Isa.Load (Isa.LW, Isa.a0 + 1, Isa.a0, 0) |],
        "raised failure: Memory: misaligned word access at 0x00000102" );
    ]
  in
  List.iter
    (fun (what, code, want) ->
      let c = hand_assembled code in
      Option.iter Alcotest.fail (disagreement what c);
      Alcotest.(check string) what want (show (outcome model c)))
    cases

(* every suite program that calls a precompile *)
let precompile_programs =
  [ "sha2-bench"; "sha3-bench"; "merkle"; "sha2-chain"; "sha3-chain"; "rsp";
    "ecdsa-verify"; "eddsa-verify"; "keccak256" ]

(* The machine's CPU stream for [c] decoded under [cfg]: exit value,
   retired count, events reported and a hash over all of them. *)
let stream cfg (c : Measure.compiled) =
  let h = ref 0 and events = ref 0 in
  let mix v =
    h := (!h * 0x100000001b3) lxor v;
    incr events
  in
  let cpu =
    {
      Machine.on_retire = (fun idx fact -> mix idx; mix fact);
      on_extern = (fun ~write addr -> mix (if write then -1 else -2); mix addr);
    }
  in
  let r = Machine.run ~cpu (Machine.decode cfg c.Measure.codegen c.Measure.modul) in
  (r.Machine.exit_value, r.Machine.retired, !events, !h)

let test_precompile_programs () =
  Alcotest.(check (list string)) "the programs that call a precompile"
    (List.sort compare precompile_programs)
    (List.sort compare
       (List.filter_map
          (fun (w : Workload.t) ->
            if w.Workload.uses_precompiles then Some w.Workload.name else None)
          (Workload.all ())));
  (* a config that prices no precompile: the zk loop fails on it, the
     CPU mode must not notice it *)
  let unpriced = { Config.risc0 with Config.name = "unpriced"; precompile_costs = [] } in
  List.iter
    (fun name ->
      let w = Workload.find name in
      List.iter
        (fun profile ->
          let what = name ^ " " ^ Profile.name profile in
          let c =
            Measure.prepare ~build:(fun () -> w.Workload.build Workload.Quick) profile
          in
          Option.iter Alcotest.fail (disagreement what c);
          Alcotest.(check bool) (what ^ ": unpriced zk run fails") true
            (match
               Machine.run
                 (Machine.decode unpriced c.Measure.codegen c.Measure.modul)
             with
            | _ -> false
            | exception Invalid_argument _ -> true);
          let risc0 = stream Config.risc0 c in
          Alcotest.(check bool) (what ^ ": sp1-decoded stream = risc0's") true
            (stream Config.sp1 c = risc0);
          Alcotest.(check bool) (what ^ ": unpriced-decoded stream = risc0's") true
            (stream unpriced c = risc0))
        [ Profile.Baseline; Profile.Level Zkopt_passes.Catalog.O3 ])
    precompile_programs

(* A return of per-instruction allocation shows here without timing
   noise: the fold must allocate fewer minor words than it retires
   instructions. *)
let test_allocation () =
  let w = Workload.find "npb-is" in
  let c = Measure.prepare ~build:(fun () -> w.Workload.build Workload.Quick) Profile.Baseline in
  let before = Gc.minor_words () in
  let r = Timing.run c.Measure.codegen c.Measure.modul in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words < %d retired" words r.Timing.retired)
    true
    (words < float_of_int r.Timing.retired)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_matches_oracle;
    Alcotest.test_case "cpu model = oracle on hand-assembled programs" `Quick
      test_hand_assembled;
    Alcotest.test_case "cpu model = oracle on precompile programs" `Quick
      test_precompile_programs;
    Alcotest.test_case "cpu model allocates less than a word per instruction"
      `Quick test_allocation;
  ]
