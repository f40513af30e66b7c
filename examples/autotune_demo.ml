(** Autotuning demo (the paper's RQ2 workflow in miniature): search pass
    sequences for one program with the genetic tuner, using cycle count
    as the fitness proxy, then compare the best sequence against -O3.

    Run with: dune exec examples/autotune_demo.exe *)

open Zkopt_core

let () =
  Zkopt_workloads.Suite.check_composition ();
  let w = Zkopt_workloads.Workload.find "npb-mg" in
  let build () = w.Zkopt_workloads.Workload.build Zkopt_workloads.Workload.Full in
  print_endline "autotuning npb-mg for RISC Zero (60 evaluations)...\n";
  let module A = Zkopt_autotune.Autotune in
  let target =
    A.backend_target ~program:"npb-mg" ~build
      (Zkopt_backend.Registry.find "risc0")
  in
  let o = A.search (A.default ~seed:42 ~iterations:60 ()) ~targets:[ target ] in
  let best = (Option.get o.A.result).A.best in
  Printf.printf "best sequence (%d cycles):\n  %s\n\n" best.A.fitness
    (String.concat " -> " best.A.genome);
  let measure profile =
    let c = Measure.prepare ~build profile in
    Measure.run_zkvm Zkopt_zkvm.Config.risc0 c
  in
  let base = measure Profile.Baseline in
  let o3 = measure (Profile.Level Zkopt_passes.Catalog.O3) in
  let tuned =
    measure (Profile.Custom (best.genome, Zkopt_passes.Pass.standard_config))
  in
  Printf.printf "baseline: %9d cycles   prove %6.2fs\n" base.Measure.cycles
    base.Measure.prove_time_s;
  Printf.printf "-O3:      %9d cycles   prove %6.2fs\n" o3.Measure.cycles
    o3.Measure.prove_time_s;
  Printf.printf "tuned:    %9d cycles   prove %6.2fs\n" tuned.Measure.cycles
    tuned.Measure.prove_time_s;
  Printf.printf "\ncycle count is a faithful proxy: its improvements carry \n";
  Printf.printf "over to proving time (the paper measures r > 0.98).\n"
