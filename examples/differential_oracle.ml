(** The paper's zkVM-testing proposal (§6.2): use optimized vs
    unoptimized runs as a test oracle — two equivalent binaries must
    produce identical results, so any divergence flags a zkVM bug.

    We arm the injected SP1 silent-halt fault (the shape of the
    security-critical bug the paper found) and show the oracle catching
    it even though the proof "verifies".

    Run with: dune exec examples/differential_oracle.exe *)

open Zkopt_core

let () =
  Zkopt_workloads.Suite.check_composition ();
  let w = Zkopt_workloads.Workload.find "factorial" in
  let build () = w.Zkopt_workloads.Workload.build Zkopt_workloads.Workload.Full in
  (* reference: healthy executor, unoptimized *)
  let reference =
    Measure.run_zkvm Zkopt_zkvm.Config.sp1 (Measure.prepare ~build Profile.Baseline)
  in
  Printf.printf "reference checksum: %Lx (%d cycles)\n\n"
    reference.Measure.exit_value reference.Measure.cycles;
  (* a buggy executor build with dense shard boundaries *)
  let buggy_vm =
    { Zkopt_zkvm.Config.sp1 with
      Zkopt_zkvm.Config.name = "sp1-buggy";
      segment_limit = 1 lsl 12 }
  in
  let caught = ref false in
  List.iter
    (fun seq ->
      if not !caught then begin
        let profile =
          Profile.Custom (seq, Zkopt_passes.Pass.standard_config)
        in
        let c = Measure.prepare ~build profile in
        let r =
          Measure.run_zkvm
            ~fault:Zkopt_zkvm.Machine.Silent_halt_on_boundary_jalr buggy_vm c
        in
        Printf.printf "sequence [%-28s] checksum %Lx, %7d cycles -> %s\n"
          (String.concat ";" seq) r.Measure.exit_value r.Measure.cycles
          (if Int64.equal r.Measure.exit_value reference.Measure.exit_value
           then "consistent"
           else "ORACLE VIOLATION (zkVM bug!)");
        if not (Int64.equal r.Measure.exit_value reference.Measure.exit_value)
        then caught := true
      end)
    [ [ "mem2reg" ]; [ "inline" ]; [ "inline"; "licm" ];
      [ "simplifycfg"; "inline" ]; [ "tailcallelim" ] ];
  if !caught then begin
    print_endline "\nthe truncated execution still produced a 'verifying'";
    print_endline "proof — only the optimized-vs-unoptimized differential";
    print_endline "oracle exposed the soundness gap, as the paper proposes."
  end
  else
    print_endline
      "\nno sequence aligned a shard boundary with a return this time —\n\
       the bug needs specific alignment, exactly as in the paper.";
  (* ---- the generalized fault family (lib/harness) ------------------- *)
  (* Accounting bugs don't change the checksum, so the checksum oracle
     is blind to them; the harness's conservation oracles catch them
     instead: paging cycles must reconcile with page events, and the
     per-segment trace must sum to the reported totals. *)
  print_endline "\ngeneralized faults vs the accounting oracles:";
  let c = Measure.prepare ~build Profile.Baseline in
  List.iter
    (fun (name, fault) ->
      let raw = Measure.run ?fault Zkopt_zkvm.Config.risc0 c in
      match Zkopt_zkvm.Vm.check_accounting Zkopt_zkvm.Config.risc0 raw with
      | Ok () -> Printf.printf "  %-24s accounting reconciles\n" name
      | Error msg -> Printf.printf "  %-24s CAUGHT: %s\n" name msg)
    [ ("healthy", None);
      ("dropped-page-out", Some Zkopt_zkvm.Machine.Dropped_page_out);
      ("truncated-final-segment",
       Some Zkopt_zkvm.Machine.Truncated_final_segment) ]
