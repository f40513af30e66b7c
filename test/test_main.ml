let () =
  Alcotest.run "zkopt"
    [
      ("ir", Test_ir.tests);
      ("analysis", Test_analysis.tests);
      ("riscv", Test_riscv.tests);
      ("passes", Test_passes.tests);
      ("zkvm", Test_zkvm.tests);
      ("machine", Test_machine.tests);
      ("cpu", Test_cpu.tests);
      ("valida", Test_valida.tests);
      ("crypto", Test_crypto.tests);
      ("infra", Test_infra.tests);
      ("workloads", Test_workloads.tests);
      ("harness", Test_harness.tests);
      ("exec", Test_exec.tests);
      ("prof", Test_prof.tests);
      ("backend", Test_backend.tests);
      ("fuzz", Test_fuzz.tests);
      ("autotune", Test_autotune.tests);
      ("serve", Test_serve.tests);
      ("settle", Test_settle.tests);
    ]
