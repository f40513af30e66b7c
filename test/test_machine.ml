(** Differential equivalence of the decoded-stream machine against the
    reference executor.

    {!Zkopt_zkvm.Machine}, the library's one RV32 interpreter, implements
    the zkVM semantics for raw speed: flat pre-decoded instruction
    stream, untagged native-int registers, epoch-stamped page bitmaps.
    Its contract is that every accounted quantity is bit-for-bit the
    reference executor's ({!Zkopt_oracle.Ref_executor.run}, the
    historical hook-driven implementation kept as the semantics oracle).
    These tests push random {!Randprog} programs and every suite program
    that calls a precompile through both paths — on both cost configs
    and under every injected fault — and demand identical results,
    identical trap identity under starvation, and that installing a sink
    perturbs nothing while its event streams satisfy the documented
    accounting identities. *)

open Zkopt_ir
open Zkopt_core
module Config = Zkopt_zkvm.Config
module Machine = Zkopt_zkvm.Machine
module Ref_executor = Zkopt_oracle.Ref_executor
module Workload = Zkopt_workloads.Workload

let all_faults =
  [
    (None, "none");
    (Some Machine.Silent_halt_on_boundary_jalr, "silent-halt");
    (Some Machine.Dropped_page_out, "dropped-page-out");
    (Some Machine.Truncated_final_segment, "truncated-final");
    (Some Machine.Corrupt_exit_value, "corrupt-exit");
  ]

let compile seed =
  let build () = Randprog.generate ~seed () in
  Measure.prepare ~build Profile.Baseline

(* The machine, called like the reference: decode, then run. *)
let machine ?fault ?fuel ?sink cfg cg m =
  Machine.run ?fault ?fuel ?sink (Machine.decode cfg cg m)

(* Both executors share exception types; capture them so starvation and
   trap behavior compare alongside normal completion. *)
type outcome = Done of Machine.result | Raised of string

let outcome ?fault ?fuel ?sink run cfg (c : Measure.compiled) =
  match run ?fault ?fuel ?sink cfg c.Measure.codegen c.Measure.modul with
  | (r : Machine.result) -> Done r
  | exception Zkopt_riscv.Emulator.Trap m -> Raised ("trap: " ^ m)
  | exception Zkopt_riscv.Emulator.Out_of_fuel n ->
    Raised (Printf.sprintf "out-of-fuel %d" n)

let show_result (r : Machine.result) =
  Printf.sprintf
    "exit=%ld total=%d user=%d paging=%d in=%d out=%d retired=%d ld=%d \
     st=%d br=%d pre=%d faulted=%b segs=[%s]"
    r.Machine.exit_value r.Machine.total_cycles r.Machine.user_cycles
    r.Machine.paging_cycles r.Machine.page_ins r.Machine.page_outs
    r.Machine.retired r.Machine.loads r.Machine.stores r.Machine.branches
    r.Machine.precompile_calls r.Machine.faulted
    (String.concat ";"
       (List.map
          (fun (s : Machine.segment) ->
            Printf.sprintf "%d+%d" s.Machine.user_cycles
              s.Machine.paging_cycles)
          r.Machine.segments))

let show_outcome = function
  | Done r -> show_result r
  | Raised m -> "raised " ^ m

(* The result record is immutable ints / int32 / bool / a list of int
   records, so structural equality is exactly field-for-field equality
   (the per-segment trace included). *)
let same a b =
  match (a, b) with
  | Done x, Done y -> x = y
  | Raised x, Raised y -> String.equal x y
  | _ -> false

let prop_matches_reference =
  QCheck.Test.make
    ~name:"machine = reference on both configs under every fault" ~count:8
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let c = compile seed in
      List.for_all
        (fun cfg ->
          List.for_all
            (fun (fault, fname) ->
              let want = outcome ?fault Ref_executor.run cfg c in
              let got = outcome ?fault machine cfg c in
              same want got
              || QCheck.Test.fail_reportf
                   "seed %d / %s / fault %s:\n  reference: %s\n  machine:   %s"
                   seed cfg.Config.name fname (show_outcome want)
                   (show_outcome got))
            all_faults)
        [ Config.risc0; Config.sp1 ])

let prop_fuel_starvation_matches =
  QCheck.Test.make ~name:"fuel starvation raises identically" ~count:6
    QCheck.(pair (int_range 1 100_000) (int_range 1 500))
    (fun (seed, fuel) ->
      let c = compile seed in
      let want = outcome ~fuel Ref_executor.run Config.risc0 c in
      let got = outcome ~fuel machine Config.risc0 c in
      same want got
      || QCheck.Test.fail_reportf "seed %d fuel %d:\n  reference: %s\n  machine: %s"
           seed fuel (show_outcome want) (show_outcome got))

(* A sink that folds every channel into the accounting identities the
   interface documents. *)
type tally = {
  mutable retires : int;
  mutable retire_cost : int;
  mutable precompile_cost : int;
  mutable precompiles : int;
  mutable page_in_cost : int;
  mutable page_out_cost : int;
  mutable segs : (int * int) list;  (* reversed (user, paging) *)
}

let tally_sink () =
  let t =
    {
      retires = 0;
      retire_cost = 0;
      precompile_cost = 0;
      precompiles = 0;
      page_in_cost = 0;
      page_out_cost = 0;
      segs = [];
    }
  in
  let sink =
    Machine.sink
      ~on_retires:
        (Machine.iter_retires (fun ~pc:_ _ins ~cost ->
             t.retires <- t.retires + 1;
             t.retire_cost <- t.retire_cost + cost))
      ~on_precompile:(fun ~pc:_ ~name:_ ~cost ->
        t.precompiles <- t.precompiles + 1;
        t.precompile_cost <- t.precompile_cost + cost)
      ~on_page_in:(fun ~pc:_ ~cost -> t.page_in_cost <- t.page_in_cost + cost)
      ~on_page_out:(fun ~pc:_ ~cost ->
        t.page_out_cost <- t.page_out_cost + cost)
      ~on_segment:(fun ~pc:_ ~user ~paging ->
        t.segs <- (user, paging) :: t.segs)
      ()
  in
  (t, sink)

let prop_sink_transparent_and_conserving =
  QCheck.Test.make
    ~name:"sink observes without perturbing; event sums close" ~count:8
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let c = compile seed in
      List.for_all
        (fun cfg ->
          let plain = machine cfg c.Measure.codegen c.Measure.modul in
          let t, sink = tally_sink () in
          let observed = machine ~sink cfg c.Measure.codegen c.Measure.modul in
          let segs_seen = List.rev t.segs in
          let segs_real =
            List.map
              (fun (s : Machine.segment) ->
                (s.Machine.user_cycles, s.Machine.paging_cycles))
              observed.Machine.segments
          in
          (plain = observed
          && t.retires = observed.Machine.retired
          && t.precompiles = observed.Machine.precompile_calls
          && t.retire_cost + t.precompile_cost = observed.Machine.user_cycles
          && t.page_in_cost + t.page_out_cost
             = observed.Machine.paging_cycles
          && segs_seen = segs_real)
          || QCheck.Test.fail_reportf
               "seed %d / %s: sink broke an identity\n\
               \  plain:    %s\n\
               \  observed: %s\n\
               \  tally: retires=%d retire+pre=%d+%d pagein+out=%d+%d segs=%d"
               seed cfg.Config.name (show_result plain) (show_result observed)
               t.retires t.retire_cost t.precompile_cost t.page_in_cost
               t.page_out_cost (List.length segs_seen))
        [ Config.risc0; Config.sp1 ])

let show_tally t =
  Printf.sprintf
    "retires=%d retire+pre=%d+%d pre=%d pagein+out=%d+%d segs=[%s]" t.retires
    t.retire_cost t.precompile_cost t.precompiles t.page_in_cost
    t.page_out_cost
    (String.concat ";"
       (List.rev_map (fun (u, p) -> Printf.sprintf "%d+%d" u p) t.segs))

(* Randprog programs never call a precompile, so the properties above
   never reach the ecall path: extern word accesses, the pages they
   touch and dirty, and precompile prices.  Every suite program that
   calls one runs here at baseline and -O3 under every fault, plain and
   with a tally sink installed on both paths.  On risc0 and sp1 a Quick
   run is one segment over a few 1 KB pages the guest touches anyway, so
   a dense config (64-byte pages, 1K-cycle segments) is what makes the
   precompiles' own page touches count. *)
let dense =
  { Config.sp1 with Config.name = "sp1-dense"; page_bytes = 64;
    segment_limit = 1 lsl 10 }

let test_precompile_programs () =
  let programs =
    List.filter (fun (w : Workload.t) -> w.Workload.uses_precompiles)
      (Workload.all ())
  in
  Alcotest.(check bool) "some suite program calls a precompile" true
    (programs <> []);
  let check_same what want got =
    if not (same want got) then
      Alcotest.failf "%s:\n  reference: %s\n  machine:   %s" what
        (show_outcome want) (show_outcome got)
  in
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun profile ->
          let c =
            Measure.prepare
              ~build:(fun () -> w.Workload.build Workload.Quick)
              profile
          in
          List.iter
            (fun cfg ->
              List.iter
                (fun (fault, fname) ->
                  let what =
                    Printf.sprintf "%s %s / %s / fault %s" w.Workload.name
                      (Profile.name profile) cfg.Config.name fname
                  in
                  check_same what
                    (outcome ?fault Ref_executor.run cfg c)
                    (outcome ?fault machine cfg c);
                  let want_t, want_sink = tally_sink () in
                  let got_t, got_sink = tally_sink () in
                  check_same (what ^ " with a sink")
                    (outcome ?fault ~sink:want_sink Ref_executor.run cfg c)
                    (outcome ?fault ~sink:got_sink machine cfg c);
                  if want_t <> got_t then
                    Alcotest.failf
                      "%s: sink tallies differ\n  reference: %s\n  machine:   %s"
                      what (show_tally want_t) (show_tally got_t))
                all_faults)
            [ Config.risc0; Config.sp1; dense ])
        [ Profile.Baseline; Profile.Level Zkopt_passes.Catalog.O3 ])
    programs

let prop_decode_once_run_many =
  QCheck.Test.make ~name:"one decode, repeated runs are deterministic"
    ~count:6
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let c = compile seed in
      let code =
        Machine.decode Config.sp1 c.Measure.codegen c.Measure.modul
      in
      let a = Machine.run code in
      let b = Machine.run code in
      let d1 = Machine.run ~fault:Machine.Dropped_page_out code in
      let d2 = Machine.run ~fault:Machine.Dropped_page_out code in
      (* a faulted run must never bill MORE paging than a healthy one *)
      a = b
      && d1 = d2
      && d1.Machine.paging_cycles <= a.Machine.paging_cycles
      || QCheck.Test.fail_reportf "seed %d: repeated runs diverged" seed)

let tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_matches_reference;
      prop_fuel_starvation_matches;
      prop_sink_transparent_and_conserving;
      prop_decode_once_run_many;
    ]
  @ [
      Alcotest.test_case "machine = reference on precompile programs" `Quick
        test_precompile_programs;
    ]
