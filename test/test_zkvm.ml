(** zkVM executor / prover model and CPU model tests. *)

open Zkopt_ir
open Zkopt_core
module B = Builder

let check = Alcotest.check

let touch_pages_program pages =
  let m = Modul.create () in
  ignore (B.global_zero m "arr" (1024 * pages));
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         (* one store into each 1 KB page *)
         B.for_ b ~from:(B.imm 0) ~bound:(B.imm pages) (fun i ->
             let addr = B.addr b (Value.Glob "arr") ~index:i ~scale:1024 in
             B.store b ~addr (B.imm 1));
         B.ret b (Some (B.imm 0))));
  m

let test_paging_counts () =
  let build () = touch_pages_program 16 in
  let c = Measure.prepare ~build Profile.Baseline in
  let r = Measure.run_zkvm Zkopt_zkvm.Config.risc0 c in
  (* at least 16 data pages plus code/stack pages, all dirtied data pages
     written out at segment close *)
  Alcotest.(check bool) "page-ins >= 16" true (r.Measure.page_ins >= 16);
  Alcotest.(check bool) "page-outs >= 16" true (r.Measure.page_outs >= 16);
  Alcotest.(check bool) "paging cycles >= 1130*pages" true
    (r.Measure.paging_cycles >= 1130 * 16)

let test_paging_asymmetry () =
  (* the same program pays much more for paging on risc0 than on sp1 *)
  let build () = touch_pages_program 32 in
  let c = Measure.prepare ~build Profile.Baseline in
  let r0 = Measure.run_zkvm Zkopt_zkvm.Config.risc0 c in
  let s1 = Measure.run_zkvm Zkopt_zkvm.Config.sp1 c in
  Alcotest.(check bool) "risc0 paging >> sp1 paging" true
    (r0.Measure.paging_cycles > 4 * s1.Measure.paging_cycles)

let test_segmentation () =
  (* a long-running loop must split into several segments *)
  let m () =
    let m = Modul.create () in
    ignore
      (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
           let s = B.var b Ty.I32 (B.imm 0) in
           B.for_ b ~from:(B.imm 0) ~bound:(B.imm 400_000) (fun i ->
               B.set b Ty.I32 s (B.add b (Value.Reg s) i));
           B.ret b (Some (Value.Reg s))));
    m
  in
  let c = Measure.prepare ~build:m Profile.Baseline in
  let r = Measure.run_zkvm Zkopt_zkvm.Config.risc0 c in
  Alcotest.(check bool) "multi-segment" true (r.Measure.segments >= 2);
  Alcotest.(check bool) "cycles > limit" true
    (r.Measure.cycles > Zkopt_zkvm.Config.risc0.Zkopt_zkvm.Config.segment_limit)

let test_prover_monotone () =
  (* more cycles never prove faster *)
  let time n =
    let build () = touch_pages_program n in
    let c = Measure.prepare ~build Profile.Baseline in
    (Measure.run_zkvm Zkopt_zkvm.Config.risc0 c).Measure.prove_time_s
  in
  Alcotest.(check bool) "monotone" true (time 64 >= time 4)

let test_fault_injection_oracle () =
  (* with the injected SP1 bug and dense shard boundaries, the silently
     truncated run verifies but fails the differential oracle *)
  let w = Zkopt_workloads.Workload.find "factorial" in
  let build () = w.Zkopt_workloads.Workload.build Zkopt_workloads.Workload.Full in
  let c = Measure.prepare ~build Profile.Baseline in
  let healthy = Measure.run_zkvm Zkopt_zkvm.Config.sp1 c in
  let dense =
    { Zkopt_zkvm.Config.sp1 with Zkopt_zkvm.Config.segment_limit = 1 lsl 12 }
  in
  let faulty =
    Measure.run_zkvm ~fault:Zkopt_zkvm.Machine.Silent_halt_on_boundary_jalr
      dense c
  in
  (* if the fault fired, the checksum differs and the cycle count shrank *)
  if faulty.Measure.exit_value <> healthy.Measure.exit_value then begin
    Alcotest.(check bool) "fewer cycles" true
      (faulty.Measure.cycles < healthy.Measure.cycles)
  end
  else
    (* boundary never hit a return — acceptable, the bug needs alignment *)
    ()

(* CPU model sanity *)

let test_cpu_div_expensive () =
  let build_with op () =
    let m = Modul.create () in
    ignore
      (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
           let s = B.var b Ty.I32 (B.imm 123456) in
           B.for_ b ~from:(B.imm 0) ~bound:(B.imm 5000) (fun i ->
               let v = B.bin b Ty.I32 op (Value.Reg s) (B.add b i (B.imm 3)) in
               B.set b Ty.I32 s v);
           B.ret b (Some (Value.Reg s))));
    m
  in
  let t op =
    let c = Measure.prepare ~build:(build_with op) Profile.Baseline in
    (Measure.run_cpu c).Measure.cpu_cycles
  in
  Alcotest.(check bool) "div slower than add on the CPU model" true
    (t Instr.Udiv > 2.0 *. t Instr.Add);
  (* ...but identical on the zkVM *)
  let zk op =
    let c = Measure.prepare ~build:(build_with op) Profile.Baseline in
    (Measure.run_zkvm Zkopt_zkvm.Config.sp1 c).Measure.cycles
  in
  Alcotest.(check int) "uniform cost on sp1" (zk Instr.Udiv) (zk Instr.Add)

(* ---- prover padding properties (qcheck) ---------------------------- *)

module Machine = Zkopt_zkvm.Machine
module Prover = Zkopt_zkvm.Prover
module Config = Zkopt_zkvm.Config

(* a synthetic executor result with the given per-segment user cycles:
   the prover model only reads the segment list *)
let synth_exec segs : Machine.result =
  let total = List.fold_left ( + ) 0 segs in
  {
    Machine.exit_value = 0l;
    total_cycles = total;
    user_cycles = total;
    paging_cycles = 0;
    page_ins = 0;
    page_outs = 0;
    segments =
      List.map (fun c -> { Machine.user_cycles = c; paging_cycles = 0 }) segs;
    retired = total;
    loads = 0;
    stores = 0;
    branches = 0;
    precompile_calls = 0;
    faulted = false;
  }

let prop_prover_min_po2_floor =
  QCheck.Test.make ~name:"every segment pads to at least 2^min_po2" ~count:100
    QCheck.(pair (int_range 8 16) (list_of_size Gen.(1 -- 8) (int_range 1 300_000)))
    (fun (po2, segs) ->
      let cfg = { Config.risc0 with Config.min_po2 = po2 } in
      let p = Prover.prove cfg (synth_exec segs) in
      p.Prover.padded_cycles_total >= List.length segs * (1 lsl po2)
      && p.Prover.segments = List.length segs)

let prop_prover_padding_monotone_minimal =
  QCheck.Test.make
    ~name:"pow2 padding is monotone in trace length, minimal, and a pow2"
    ~count:100
    QCheck.(pair (int_range 1 500_000) (int_range 0 100_000))
    (fun (c, d) ->
      let cfg = { Config.sp1 with Config.min_po2 = 10 } in
      let pad c =
        (Prover.prove cfg (synth_exec [ c ])).Prover.padded_cycles_total
      in
      let p = pad c in
      (* longer traces never pad to less *)
      pad (c + d) >= p
      (* minimality: never more than one doubling above max(actual, floor) *)
      && p < 2 * max c (1 lsl 10)
      (* and the padded size is an exact power of two *)
      && p land (p - 1) = 0)

let prop_prover_straggler_segment_cost =
  QCheck.Test.make
    ~name:"a straggler segment costs a full overhead + floor pad (fig. 13)"
    ~count:100
    QCheck.(
      triple
        (list_of_size Gen.(1 -- 8) (int_range 1 2_000_000))
        (int_range 1 1_000) (int_range 0 1))
    (fun (segs, tail, which) ->
      (* Fig. 13's regex-match regression: the optimized build spills a
         few cycles past a shard boundary and the prover pays for a 20th
         shard instead of 16 — an entire extra overhead plus a table
         padded all the way up to the 2^min_po2 floor, for [tail] cycles
         of actual work *)
      let cfg = if which = 0 then Config.risc0 else Config.sp1 in
      let base = Prover.prove cfg (synth_exec segs) in
      let more = Prover.prove cfg (synth_exec (segs @ [ tail ])) in
      more.Prover.segments = base.Prover.segments + 1
      && more.Prover.padded_cycles_total
         >= base.Prover.padded_cycles_total + (1 lsl cfg.Config.min_po2)
      && more.Prover.time_s -. base.Prover.time_s
         >= cfg.Config.prove_segment_overhead_ns *. 1e-9)

let test_cache_and_predictor () =
  let cache = Zkopt_cpu.Cache.create () in
  (* sequential accesses: high hit rate after the first line touch *)
  for i = 0 to 4095 do
    ignore (Zkopt_cpu.Cache.access cache (4 * i))
  done;
  Alcotest.(check bool) "mostly hits" true
    (cache.Zkopt_cpu.Cache.hits > 8 * cache.Zkopt_cpu.Cache.misses);
  (* only a second sequential miss starts a prefetch stream *)
  let fresh = Zkopt_cpu.Cache.create () in
  Alcotest.(check bool) "line 0 misses" false (Zkopt_cpu.Cache.access fresh 0);
  Alcotest.(check bool) "the first miss prefetches nothing" false
    (Zkopt_cpu.Cache.access fresh 64);
  Alcotest.(check bool) "the second sequential miss prefetched line 2" true
    (Zkopt_cpu.Cache.access fresh 128);
  let p = Zkopt_cpu.Predictor.create () in
  (* a always-taken branch becomes predictable *)
  for _ = 1 to 100 do
    ignore (Zkopt_cpu.Predictor.access p 0x1000 ~taken:true)
  done;
  Alcotest.(check bool) "learns" true (p.Zkopt_cpu.Predictor.mispredicts <= 2)

let tests =
  [
    Alcotest.test_case "paging counts" `Quick test_paging_counts;
    Alcotest.test_case "paging asymmetry r0/sp1" `Quick test_paging_asymmetry;
    Alcotest.test_case "segmentation" `Quick test_segmentation;
    Alcotest.test_case "prover monotone" `Quick test_prover_monotone;
    Alcotest.test_case "fault injection + oracle" `Quick test_fault_injection_oracle;
    Alcotest.test_case "cpu: div expensive, zk uniform" `Quick test_cpu_div_expensive;
    Alcotest.test_case "cache + predictor" `Quick test_cache_and_predictor;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_prover_min_po2_floor;
        prop_prover_padding_monotone_minimal;
        prop_prover_straggler_segment_cost;
      ]
