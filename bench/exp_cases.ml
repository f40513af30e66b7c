(** The paper's case studies: the two motivating examples (Fig. 2), the
    licm paging study (Fig. 9), the inline-spill regression (Fig. 10),
    loop unrolling at IR and hand-written assembly level (Fig. 11 /
    Table 2), the simplifycfg abs() divergence (Fig. 12), and the
    inline-threshold experiment (§5). *)

open Zkopt_ir
open Zkopt_core
open Zkopt_report
module B = Builder
module Stats = Zkopt_stats.Stats

let measure_both ~build profile =
  let c = Measure.prepare ~build profile in
  let r0 = Measure.run_zkvm Zkopt_zkvm.Config.risc0 c in
  let sp1 = Measure.run_zkvm Zkopt_zkvm.Config.sp1 c in
  let cpu = Measure.run_cpu c in
  (r0, sp1, cpu)

let speedup base v = Stats.improvement_pct ~base v

let compare_profiles ~build ~label ~base_profile ~opt_profile =
  let b0, b1, bc = measure_both ~build base_profile in
  let o0, o1, oc = measure_both ~build opt_profile in
  Report.note
    "%-22s R0 exec %s prove %s | SP1 exec %s prove %s | CPU %s" label
    (Report.pct (speedup b0.Measure.exec_time_s o0.Measure.exec_time_s))
    (Report.pct (speedup b0.Measure.prove_time_s o0.Measure.prove_time_s))
    (Report.pct (speedup b1.Measure.exec_time_s o1.Measure.exec_time_s))
    (Report.pct (speedup b1.Measure.prove_time_s o1.Measure.prove_time_s))
    (Report.pct (speedup bc.Measure.cpu_time_s oc.Measure.cpu_time_s));
  ((b0, b1, bc), (o0, o1, oc))

(* ------------------------------------------------------------------ *)
(* Fig. 2a — strength reduction                                        *)
(* ------------------------------------------------------------------ *)

let div_loop_program n () =
  let m = Modul.create () in
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let s = B.var b Ty.I32 (B.imm 0) in
         let x = B.var b Ty.I32 (B.imm 123456789) in
         B.for_ b ~from:(B.imm 0) ~bound:(B.imm n) (fun _ ->
             B.set b Ty.I32 x
               (B.add b (B.mul b (Value.Reg x) (B.imm 1103515245)) (B.imm 12345));
             let q = B.udiv b (Value.Reg x) (B.imm 52) in
             let r = B.urem b (Value.Reg x) (B.imm 13) in
             B.set b Ty.I32 s (B.add b (Value.Reg s) (B.add b q r)));
         B.ret b (Some (Value.Reg s))));
  m

let fig2a () =
  Report.section "Fig. 2a — strength reduction (division -> shift/magic)";
  Report.paper "x86 3.5x faster after the rewrite; RISC Zero proving 40%% slower";
  ignore
    (compare_profiles ~build:(div_loop_program 60_000)
       ~label:"strength-reduction"
       ~base_profile:Profile.Baseline
       ~opt_profile:(Profile.Single_pass "strength-reduction"))

(* ------------------------------------------------------------------ *)
(* Fig. 2b — loop fission                                              *)
(* ------------------------------------------------------------------ *)

let fission_program n () =
  let m = Modul.create () in
  ignore (B.global_zero m "fa" (4 * n));
  ignore (B.global_zero m "fb" (4 * n));
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let fa = Value.Glob "fa" and fb = Value.Glob "fb" in
         B.for_ b ~from:(B.imm 0) ~bound:(B.imm n) (fun i ->
             let a = B.mul b i (B.imm 3) in
             B.store b ~addr:(B.addr b fa ~index:i) a;
             let c = B.xor b i (B.imm 0x5A5A) in
             B.store b ~addr:(B.addr b fb ~index:i) c);
         let s1 = B.load b (B.addr b fa ~index:(B.imm (n - 1))) in
         let s2 = B.load b (B.addr b fb ~index:(B.imm (n - 1))) in
         B.ret b (Some (B.xor b s1 s2))));
  m

let fig2b () =
  Report.section "Fig. 2b — loop fission (N reduced from the paper's 1048576)";
  Report.paper "x86 ~8%% faster after fission; SP1 proving ~5%% slower";
  ignore
    (compare_profiles ~build:(fission_program 49_152) ~label:"loop-fission"
       ~base_profile:Profile.Baseline
       ~opt_profile:(Profile.Single_pass "loop-fission"))

(* ------------------------------------------------------------------ *)
(* Fig. 9 — licm paging pressure                                       *)
(* ------------------------------------------------------------------ *)

(* loop nests of the given depth storing through many distinct arrays so
   hoisted address computations outgrow the register file *)
let licm_program ~depth ~arrays ~n () =
  let m = Modul.create () in
  for k = 0 to arrays - 1 do
    ignore (B.global_zero m (Printf.sprintf "g%d" k) (4 * (n + 8)))
  done;
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         (* the innermost loop reads/writes [arrays] addresses that depend
            only on the *outer* induction variable: licm hoists all of the
            address computations, creating [arrays] simultaneously-live
            pointers across the inner loop *)
         let rec go d outer_iv =
           if d = 0 then begin
             let iv = Option.get outer_iv in
             B.for_ b ~from:(B.imm 0) ~bound:(B.imm 8) (fun j ->
                 for k = 0 to arrays - 1 do
                   let base = Value.Glob (Printf.sprintf "g%d" k) in
                   let addr =
                     B.addr b base ~index:iv ~scale:4 ~offset:(4 * (k mod 7))
                   in
                   let v = B.load b addr in
                   B.store b ~addr (B.add b v j)
                 done)
           end
           else
             B.for_ b ~from:(B.imm 0)
               ~bound:(B.imm (if d = depth then n else 3))
               (fun iv -> go (d - 1) (Some iv))
         in
         go depth None;
         let v = B.load b (B.addr b (Value.Glob "g0") ~index:(B.imm 1)) in
         B.ret b (Some v)));
  m

let fig9 () =
  Report.section "Fig. 9 — licm turns loop work into paging pressure";
  Report.paper
    "npb-lu: licm +444%% paging cycles on R0, +69%% on SP1; depth-4 nests \
     2.6x cycles vs 1.3x at depth 2; prove 2.7x slower (R0)";
  let study label ~depth ~arrays ~n =
    let build = licm_program ~depth ~arrays ~n in
    let base = Measure.prepare ~build Profile.Baseline in
    let licm =
      Measure.prepare ~build
        (Profile.Custom ([ "licm" ], Zkopt_passes.Pass.standard_config))
    in
    let b0 = Measure.run_zkvm Zkopt_zkvm.Config.risc0 base in
    let l0 = Measure.run_zkvm Zkopt_zkvm.Config.risc0 licm in
    let b1 = Measure.run_zkvm Zkopt_zkvm.Config.sp1 base in
    let l1 = Measure.run_zkvm Zkopt_zkvm.Config.sp1 licm in
    let pag m = float_of_int m.Measure.paging_cycles in
    let pct_more a bb = (bb /. Float.max 1.0 a -. 1.0) *. 100.0 in
    Report.note
      "%-18s R0 paging %+.0f%%  cycles x%.2f | SP1 paging %+.0f%%  cycles x%.2f"
      label
      (pct_more (pag b0) (pag l0))
      (float_of_int l0.Measure.cycles /. float_of_int b0.Measure.cycles)
      (pct_more (pag b1) (pag l1))
      (float_of_int l1.Measure.cycles /. float_of_int b1.Measure.cycles);
    Report.note "%-18s R0 spill traffic: baseline %d lw/sw, licm %d lw/sw"
      "" (b0.Measure.loads + b0.Measure.stores)
      (l0.Measure.loads + l0.Measure.stores)
  in
  study "depth 1 (fig 9a)" ~depth:1 ~arrays:24 ~n:300;
  study "depth 2" ~depth:2 ~arrays:24 ~n:100;
  study "depth 4 (fig 9b)" ~depth:4 ~arrays:24 ~n:40

(* ------------------------------------------------------------------ *)
(* Fig. 10 — inline-driven u64 spills                                  *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  Report.section "Fig. 10 — inlining the u64 work() loop (tailcall program)";
  Report.paper
    "inlining: 0.8x exec / 0.45x prove speedup (i.e. slower); lw/sw \
     roughly doubles from register-pair spills";
  let w = Zkopt_workloads.Workload.find "tailcall" in
  let build () = w.Zkopt_workloads.Workload.build Zkopt_workloads.Workload.Full in
  let cfg = { Zkopt_passes.Pass.standard_config with inline_threshold = 5000 } in
  let base = Measure.prepare ~build Profile.Baseline in
  let inl = Measure.prepare ~build (Profile.Custom ([ "inline" ], cfg)) in
  let report label c =
    let r0 = Measure.run_zkvm Zkopt_zkvm.Config.risc0 c in
    Report.note "%-10s R0 cycles %9d  lw+sw %8d  prove %ss" label
      r0.Measure.cycles
      (r0.Measure.loads + r0.Measure.stores)
      (Report.f2 r0.Measure.prove_time_s);
    r0
  in
  let b0 = report "baseline" base in
  let i0 = report "inlined" inl in
  Report.note "exec speedup: %.2fx   memory-op ratio: %.2fx"
    (float_of_int b0.Measure.cycles /. float_of_int i0.Measure.cycles)
    (float_of_int (i0.Measure.loads + i0.Measure.stores)
    /. float_of_int (max 1 (b0.Measure.loads + b0.Measure.stores)))

(* ------------------------------------------------------------------ *)
(* Fig. 11 / Table 2 — loop unrolling, IR pass and manual assembly     *)
(* ------------------------------------------------------------------ *)

let matvec_program () =
  let m = Modul.create () in
  ignore (B.global_zero m "mat" (4 * 25));
  ignore (B.global_zero m "vec" (4 * 5));
  ignore (B.global_zero m "res" (4 * 5));
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let mat = Value.Glob "mat" and vec = Value.Glob "vec" in
         let res = Value.Glob "res" in
         B.for_ b ~from:(B.imm 0) ~bound:(B.imm 25) (fun i ->
             B.store b ~addr:(B.addr b mat ~index:i) (B.add b i (B.imm 1)));
         B.for_ b ~from:(B.imm 0) ~bound:(B.imm 5) (fun i ->
             B.store b ~addr:(B.addr b vec ~index:i) (B.add b i (B.imm 2)));
         B.for_ b ~from:(B.imm 0) ~bound:(B.imm 800) (fun _rep ->
             B.for_ b ~from:(B.imm 0) ~bound:(B.imm 5) (fun col ->
                 B.for_ b ~from:(B.imm 0) ~bound:(B.imm 5) (fun row ->
                     let mv =
                       B.load b
                         (B.addr b mat
                            ~index:(B.add b (B.mul b col (B.imm 5)) row))
                     in
                     let vv = B.load b (B.addr b vec ~index:col) in
                     let cur = B.load b (B.addr b res ~index:row) in
                     B.store b ~addr:(B.addr b res ~index:row)
                       (B.add b cur (B.mul b mv vv)))));
         let v = B.load b (B.addr b res ~index:(B.imm 3)) in
         B.ret b (Some v)));
  m

let fig11 () =
  Report.section "Fig. 11 — loop-unroll on the 5x5 matvec (pass level)";
  Report.paper "x86 ~+9%%; both zkVMs slow down 3-10%% (exec and prove)";
  ignore
    (compare_profiles ~build:matvec_program ~label:"loop-unroll"
       ~base_profile:Profile.Baseline
       ~opt_profile:(Profile.Single_pass "loop-unroll"))

(* hand-written RV32 assembly: sum a 4096-word array, unrolled 1x/4x/16x *)
let manual_sum_unit factor : Zkopt_riscv.Asm.unit_ =
  let open Zkopt_riscv in
  let a0 = 10 and a1 = 11 and a2 = 12 and t0 = 5 in
  let body k = Asm.Ins (Isa.Load (Isa.LW, t0, a1, 4 * k))
  and acc = Asm.Ins (Isa.Op (Isa.ADD, a0, a0, t0)) in
  let unrolled =
    List.concat (List.init factor (fun k -> [ body k; acc ]))
  in
  let a3 = 13 in
  {
    Asm.name = "main";
    items =
      [ Asm.Li (a0, 0l);                      (* acc *)
        Asm.Li (a3, 64l);                     (* outer repetitions *)
        Asm.Label "outer";
        Asm.La (a1, "data");                  (* cursor *)
        Asm.Li (a2, Int32.of_int (4096 / factor)); (* remaining groups *)
        Asm.Label "loop" ]
      @ unrolled
      @ [ Asm.Ins (Isa.Opi (Isa.ADDI, a1, a1, 4 * factor));
          Asm.Ins (Isa.Opi (Isa.ADDI, a2, a2, -1));
          Asm.Bc (Isa.BNE, a2, 0, "loop");
          Asm.Ins (Isa.Opi (Isa.ADDI, a3, a3, -1));
          Asm.Bc (Isa.BNE, a3, 0, "outer");
          (* halt with the sum *)
          Asm.Li (17, 0l); Asm.Ins Isa.Ecall ];
  }

let tab2 () =
  Report.section "Table 2 — manual assembly unrolling (4x, 16x) speedups";
  Report.paper
    "4x: x86 +28.1%%, SP1 prove +24.3%%, R0 prove +51.4%%; 16x: x86 +31.5%%, \
     R0 exec +52.7%%";
  let open Zkopt_riscv in
  let modul = Modul.create () in
  Modul.add_global modul
    { Modul.gname = "data";
      init = Modul.Words (Array.init 4096 (fun i -> Int32.of_int (i * 7))) };
  let run factor =
    let globals, data_end = Layout.place_globals modul in
    let prog = Asm.assemble ~globals ~data_end [ manual_sum_unit factor ] in
    let cg = { Codegen.program = prog; stats = [] } in
    let r0 = Zkopt_zkvm.Vm.measure Zkopt_zkvm.Config.risc0 cg modul in
    let s1 = Zkopt_zkvm.Vm.measure Zkopt_zkvm.Config.sp1 cg modul in
    let cpu, _ = Zkopt_cpu.Timing.run cg modul in
    (r0, s1, cpu)
  in
  let b0, b1, bc = run 1 in
  let rows =
    List.map
      (fun factor ->
        let r0, s1, cpu = run factor in
        [ string_of_int factor ^ "x";
          Report.pct (speedup bc.Zkopt_cpu.Timing.time_s cpu.Zkopt_cpu.Timing.time_s);
          Report.pct (speedup b1.Zkopt_zkvm.Vm.prove_time_s s1.Zkopt_zkvm.Vm.prove_time_s);
          Report.pct (speedup b1.Zkopt_zkvm.Vm.exec_time_s s1.Zkopt_zkvm.Vm.exec_time_s);
          Report.pct (speedup b0.Zkopt_zkvm.Vm.prove_time_s r0.Zkopt_zkvm.Vm.prove_time_s);
          Report.pct (speedup b0.Zkopt_zkvm.Vm.exec_time_s r0.Zkopt_zkvm.Vm.exec_time_s) ])
      [ 4; 16 ]
  in
  Report.table
    ~headers:[ "factor"; "x86"; "SP1 prove"; "SP1 exec"; "R0 prove"; "R0 exec" ]
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 12 — branchy abs vs simplifycfg's select                       *)
(* ------------------------------------------------------------------ *)

let abs_program n () =
  let m = Modul.create () in
  ignore (B.global_zero m "data" (4 * 1024));
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let data = Value.Glob "data" in
         (* random signs defeat the branch predictor *)
         let x = B.var b Ty.I32 (B.imm 88172645) in
         B.for_ b ~from:(B.imm 0) ~bound:(B.imm 1024) (fun i ->
             B.set b Ty.I32 x
               (B.add b (B.mul b (Value.Reg x) (B.imm 1103515245)) (B.imm 12345));
             B.store b ~addr:(B.addr b data ~index:i) (Value.Reg x));
         let s = B.var b Ty.I32 (B.imm 0) in
         B.for_ b ~from:(B.imm 0) ~bound:(B.imm n) (fun i ->
             let idx = B.and_ b i (B.imm 1023) in
             let v = B.load b (B.addr b data ~index:idx) in
             let r = B.var b Ty.I32 v in
             let neg = B.icmp b Instr.Slt v (B.imm 0) in
             B.if_ b neg
               ~then_:(fun () -> B.set b Ty.I32 r (B.sub b (B.imm 0) v))
               ();
             B.set b Ty.I32 s (B.add b (Value.Reg s) (Value.Reg r)));
         B.ret b (Some (Value.Reg s))));
  m

let fig12 () =
  Report.section "Fig. 12 — simplifycfg converts the abs() branch to a select";
  Report.paper
    "x86 2.2x faster (no mispredicts); R0 cycles +17.7%%, SP1 +7.6%%; prove \
     regresses similarly";
  let ((b0, b1, _), (o0, o1, _)) =
    compare_profiles ~build:(abs_program 40_000) ~label:"simplifycfg"
      ~base_profile:Profile.Baseline
      ~opt_profile:(Profile.Single_pass "simplifycfg")
  in
  Report.note "cycle-count change: R0 %+.1f%%, SP1 %+.1f%%"
    ((float_of_int o0.Measure.cycles /. float_of_int b0.Measure.cycles -. 1.) *. 100.)
    ((float_of_int o1.Measure.cycles /. float_of_int b1.Measure.cycles -. 1.) *. 100.)

(* ------------------------------------------------------------------ *)
(* §5 — raising the inline threshold to the autotuned 4328             *)
(* ------------------------------------------------------------------ *)

let inline_threshold ~size () =
  Report.section "§5 — -O3 with inline-threshold 4328 (vs default)";
  Report.paper
    "avg exec +6%% on R0 / +1%% on SP1; npb-bt +44%% (R0); x86 average -1%%";
  let progs = Zkopt_workloads.Workload.by_suite "npb" in
  let cfg_hi =
    { (Zkopt_passes.Catalog.level_config Zkopt_passes.Catalog.O3) with
      inline_threshold = 4328 }
  in
  let deltas =
    List.map
      (fun (w : Zkopt_workloads.Workload.t) ->
        let build () = w.Zkopt_workloads.Workload.build size in
        let o3 = Measure.prepare ~build (Profile.Level Zkopt_passes.Catalog.O3) in
        let hi =
          Measure.prepare ~build
            (Profile.Custom (Zkopt_passes.Catalog.pipeline Zkopt_passes.Catalog.O3, cfg_hi))
        in
        let b0 = Measure.run_zkvm Zkopt_zkvm.Config.risc0 o3 in
        let h0 = Measure.run_zkvm Zkopt_zkvm.Config.risc0 hi in
        let d = speedup b0.Measure.exec_time_s h0.Measure.exec_time_s in
        Report.note "  %-10s R0 exec %s" w.Zkopt_workloads.Workload.name (Report.pct d);
        d)
      progs
  in
  Report.note "NPB average (R0 exec): %s" (Report.pct (Stats.mean deltas))

let run ~size () =
  fig2a ();
  fig2b ();
  fig9 ();
  fig10 ();
  fig11 ();
  tab2 ();
  fig12 ();
  inline_threshold ~size ()
