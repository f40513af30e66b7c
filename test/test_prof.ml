(** lib/prof: provenance maps, attribution conservation, diffing.

    The load-bearing properties: every cycle the executor accounts is
    attributed to exactly one provenance site (per dimension), and the
    source map survives the whole backend including regalloc's spill
    insertion. *)

open Zkopt_ir
open Zkopt_core
module B = Builder
module P = Zkopt_prof.Profile
module Site = Zkopt_prof.Site

let small_risc0 =
  (* a tiny segment limit so random programs close several segments and
     the per-segment attribution paths all run *)
  { Zkopt_zkvm.Config.risc0 with Zkopt_zkvm.Config.segment_limit = 1 lsl 12 }

(* ---- conservation properties -------------------------------------- *)

let prop_zk_conservation =
  QCheck.Test.make ~name:"attributed cycles reconcile with the executor"
    ~count:8
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let build () = Randprog.generate ~seed () in
      let profile =
        if seed mod 2 = 0 then Profile.Baseline else Profile.Single_pass "licm"
      in
      let c = Measure.prepare ~build profile in
      let m, p =
        Zkopt_prof.Driver.profile_zkvm ~label:"t" small_risc0 c
      in
      let e = m.Zkopt_zkvm.Vm.exec in
      let cfg = small_risc0 in
      let exec_sum = int_of_float (P.total p P.Exec) in
      let pin_sum = int_of_float (P.total p P.Paging_in) in
      let pout_sum = int_of_float (P.total p P.Paging_out) in
      let residue_sum = int_of_float (P.total p P.Segment) in
      let folded_sum =
        List.fold_left (fun a (_, v) -> a + v) 0 (P.folded_lines p)
      in
      let prove = Zkopt_zkvm.Prover.prove cfg e in
      exec_sum = e.Zkopt_zkvm.Machine.user_cycles
      && folded_sum = exec_sum
      && pin_sum
         = e.Zkopt_zkvm.Machine.page_ins * cfg.Zkopt_zkvm.Config.page_in_cost
      && pout_sum
         = e.Zkopt_zkvm.Machine.page_outs * cfg.Zkopt_zkvm.Config.page_out_cost
      && pin_sum + pout_sum = e.Zkopt_zkvm.Machine.paging_cycles
      && residue_sum
         = prove.Zkopt_zkvm.Prover.padded_cycles_total
           - e.Zkopt_zkvm.Machine.total_cycles)

let prop_cpu_conservation =
  QCheck.Test.make ~name:"attributed CPU cycles sum to the model's total"
    ~count:8
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let build () = Randprog.generate ~seed () in
      let c = Measure.prepare ~build Profile.Baseline in
      let m, p = Zkopt_prof.Driver.profile_cpu ~label:"t" c in
      let total = m.Measure.cpu_cycles in
      let attributed = P.total p P.Cpu in
      Float.abs (attributed -. total) <= 1e-6 *. Float.max 1.0 total)

(* ---- provenance units ---------------------------------------------- *)

(* 20 simultaneously-live products overflow the 13-register pool, so
   regalloc must insert spill code *)
let pressure_module () =
  let m = Modul.create () in
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let vals =
           List.init 20 (fun k ->
               B.mul b (B.imm (k + 1)) (B.imm ((k * 37) + 3)))
         in
         let sum = List.fold_left (fun acc v -> B.add b acc v) (B.imm 0) vals in
         B.ret b (Some sum)));
  m

let test_srcmap_covers_code () =
  let cg = Zkopt_riscv.Codegen.compile (pressure_module ()) in
  let prog = cg.Zkopt_riscv.Codegen.program in
  Alcotest.(check int)
    "one srcmap entry per code word"
    (Array.length prog.Zkopt_riscv.Asm.code)
    (Array.length prog.Zkopt_riscv.Asm.srcmap)

let test_spill_provenance () =
  let cg = Zkopt_riscv.Codegen.compile (pressure_module ()) in
  let spills =
    List.fold_left
      (fun a (s : Zkopt_riscv.Codegen.func_stats) ->
        a + s.Zkopt_riscv.Codegen.spill_loads
        + s.Zkopt_riscv.Codegen.spill_stores)
      0 cg.Zkopt_riscv.Codegen.stats
  in
  Alcotest.(check bool) "register pressure forced spills" true (spills > 0);
  let prog = cg.Zkopt_riscv.Codegen.program in
  (* every word — including the inserted spill loads/stores — still maps
     to the one function, and the hot block's marker survived *)
  Array.iter
    (fun (f, _) -> Alcotest.(check string) "spill code keeps its function" "main" f)
    prog.Zkopt_riscv.Asm.srcmap;
  let has_entry =
    Array.exists (fun (_, b) -> String.equal b "entry") prog.Zkopt_riscv.Asm.srcmap
  in
  Alcotest.(check bool) "entry block marker survived regalloc" true has_entry

let test_site_of_pc_bounds () =
  let cg = Zkopt_riscv.Codegen.compile (pressure_module ()) in
  let prog = cg.Zkopt_riscv.Codegen.program in
  let base = prog.Zkopt_riscv.Asm.base in
  Alcotest.(check bool)
    "in-range pc resolves" true
    (Option.is_some (Zkopt_riscv.Asm.site_of_pc prog base));
  Alcotest.(check bool)
    "out-of-range pc is None" true
    (Option.is_none (Zkopt_riscv.Asm.site_of_pc prog (Int32.sub base 4l)))

(* ---- diff + persistence units -------------------------------------- *)

let mk_profile label sites =
  let p = P.create ~vm:"risc0" ~label in
  List.iter
    (fun (f, b, exec) ->
      let c = P.counters p (Site.make f b) in
      c.P.exec <- exec)
    sites;
  p

let test_diff_ranking () =
  let base = mk_profile "base" [ ("m", "a", 100); ("m", "b", 10) ] in
  let cand = mk_profile "cand" [ ("m", "a", 50); ("m", "b", 200); ("m", "c", 5) ] in
  let entries = Zkopt_prof.Diff.by_dim P.Exec ~base ~cand in
  let deltas =
    List.map
      (fun (e : Zkopt_prof.Diff.entry) ->
        (Site.to_string e.Zkopt_prof.Diff.site, int_of_float e.Zkopt_prof.Diff.delta))
      entries
  in
  Alcotest.(check (list (pair string int)))
    "largest |delta| first"
    [ ("m:b", 190); ("m:a", -50); ("m:c", 5) ]
    deltas

let test_save_load_roundtrip () =
  let p = P.create ~vm:"sp1" ~label:"O2" in
  let c = P.counters p (Site.make "f" "loop.1") in
  c.P.exec <- 42;
  c.P.paging_in <- 110;
  c.P.paging_out <- 40;
  c.P.segment <- 7;
  c.P.cpu <- 12.5;
  c.P.retired <- 42;
  c.P.mem_ops <- 3;
  let c2 = P.counters p (Site.make "g" "") in
  c2.P.exec <- 1;
  P.fold_add p "f;g:entry" 9;
  let path = Filename.temp_file "zkprof" ".prof" in
  P.save p path;
  let q = P.load path in
  Sys.remove path;
  Alcotest.(check string) "vm" "sp1" q.P.vm;
  Alcotest.(check string) "label" "O2" q.P.label;
  let qc = P.counters q (Site.make "f" "loop.1") in
  Alcotest.(check int) "exec" 42 qc.P.exec;
  Alcotest.(check int) "paging_in" 110 qc.P.paging_in;
  Alcotest.(check int) "paging_out" 40 qc.P.paging_out;
  Alcotest.(check int) "segment" 7 qc.P.segment;
  Alcotest.(check int) "retired" 42 qc.P.retired;
  Alcotest.(check int) "mem_ops" 3 qc.P.mem_ops;
  Alcotest.(check (float 0.001)) "cpu" 12.5 qc.P.cpu;
  Alcotest.(check int) "second site" 1 (P.counters q (Site.make "g" "")).P.exec;
  Alcotest.(check (list (pair string int)))
    "folded" [ ("f;g:entry", 9) ] (P.folded_lines q)

let test_profiled_run_matches_unprofiled () =
  (* installing the sink must not change the measurement *)
  let w = Zkopt_workloads.Workload.find "loop-sum" in
  let build () = w.Zkopt_workloads.Workload.build Zkopt_workloads.Workload.Quick in
  let c = Measure.prepare ~build Profile.Baseline in
  let plain = Measure.run_zkvm Zkopt_zkvm.Config.risc0 c in
  let m, _ =
    Zkopt_prof.Driver.profile_zkvm ~label:"t" Zkopt_zkvm.Config.risc0 c
  in
  Alcotest.(check int) "cycles" plain.Measure.cycles m.Zkopt_zkvm.Vm.cycles;
  Alcotest.(check int) "paging" plain.Measure.paging_cycles
    m.Zkopt_zkvm.Vm.paging_cycles;
  Alcotest.(check int) "segments" plain.Measure.segments
    m.Zkopt_zkvm.Vm.segments

let tests =
  [
    Alcotest.test_case "srcmap covers every code word" `Quick
      test_srcmap_covers_code;
    Alcotest.test_case "provenance survives spill insertion" `Quick
      test_spill_provenance;
    Alcotest.test_case "site_of_pc bounds" `Quick test_site_of_pc_bounds;
    Alcotest.test_case "diff ranks by |delta|" `Quick test_diff_ranking;
    Alcotest.test_case "profile save/load roundtrip" `Quick
      test_save_load_roundtrip;
    Alcotest.test_case "profiling is observation-only" `Quick
      test_profiled_run_matches_unprofiled;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_zk_conservation; prop_cpu_conservation ]
