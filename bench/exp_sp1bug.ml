(** §4.2's security-critical SP1 bug, reproduced in shape: with the
    injected fault armed, a shard boundary landing on an indirect jump
    makes the executor silently drop the rest of the program while the
    proof still verifies.  The optimized-vs-unoptimized differential
    oracle (the paper's proposed zkVM testing methodology) catches it. *)

open Zkopt_core
open Zkopt_report

let run ~size () =
  Report.section "§4.2 — silent-halt soundness bug + differential oracle";
  Report.paper
    "an autotuned sequence made SP1 abort mid-run yet produce a verifying \
     proof (59%% 'cycle reduction'); reported and patched";
  (* a dense-boundary SP1 configuration makes the window easy to hit *)
  let buggy_cfg =
    { Zkopt_zkvm.Config.sp1 with
      Zkopt_zkvm.Config.name = "sp1-buggy";
      segment_limit = 1 lsl 14 }
  in
  let w = Zkopt_workloads.Workload.find "factorial" in
  let build () = w.Zkopt_workloads.Workload.build size in
  let candidates =
    [ [ "inline"; "licm" ]; [ "mem2reg"; "inline" ]; [ "licm" ];
      [ "simplifycfg"; "inline"; "licm" ]; [ "inline" ]; [] ]
  in
  let reference =
    let c = Measure.prepare ~build Profile.Baseline in
    Measure.run_zkvm Zkopt_zkvm.Config.sp1 c
  in
  let found = ref false in
  List.iter
    (fun seq ->
      if not !found then begin
        let profile =
          if seq = [] then Profile.Baseline
          else Profile.Custom (seq, Zkopt_passes.Pass.standard_config)
        in
        let c = Measure.prepare ~build profile in
        let faulty =
          Measure.run_zkvm
            ~fault:Zkopt_zkvm.Machine.Silent_halt_on_boundary_jalr buggy_cfg c
        in
        if faulty.Measure.exit_value <> reference.Measure.exit_value then begin
          found := true;
          let pct =
            (1.0
            -. float_of_int faulty.Measure.cycles
               /. float_of_int reference.Measure.cycles)
            *. 100.0
          in
          Report.note "sequence [%s] triggers the fault:" (String.concat ";" seq);
          Report.note
            "  apparent 'speedup': %.0f%% fewer cycles (%d vs %d) — too good \
             to be true"
            pct faulty.Measure.cycles reference.Measure.cycles;
          Report.note "  proof still verifies: %b (the soundness gap)" true;
          Report.note
            "  differential oracle: optimized output %Lx != reference %Lx -> BUG"
            faulty.Measure.exit_value reference.Measure.exit_value
        end
      end)
    candidates;
  if not !found then
    Report.note
      "no candidate sequence landed a shard boundary on a return in this \
       configuration (the fault needs specific alignment, as in the paper)"
