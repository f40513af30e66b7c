(** One-call profiling drivers: run a compiled program under a zkVM
    configuration (or the CPU model) with an attribution collector
    installed, and return both the ordinary metrics and the profile.

    The profiled run is bit-identical to an unprofiled one — the sink
    only observes costs the executor was already accounting — so the
    metrics returned here match what [Measure.run_zkvm] reports without
    a profiler attached. *)

module Measure = Zkopt_core.Measure
module Backend = Zkopt_backend.Backend

let collector c profile =
  Collect.of_program c.Measure.codegen.Zkopt_riscv.Codegen.program profile

let rv32_segment_pad (cfg : Zkopt_zkvm.Config.t) n =
  Zkopt_zkvm.Prover.padded ~min_po2:cfg.Zkopt_zkvm.Config.min_po2 n - n

(** Profile one zkVM run.  [label] names the profile (e.g. the profile /
    pass under test); the vm name is taken from [cfg]. *)
let profile_zkvm ?fuel ~label (cfg : Zkopt_zkvm.Config.t)
    (c : Measure.compiled) : Zkopt_zkvm.Vm.metrics * Profile.t =
  let p = Profile.create ~vm:cfg.Zkopt_zkvm.Config.name ~label in
  let col = collector c p in
  let sink = Collect.zk_sink col ~segment_pad:(rv32_segment_pad cfg) in
  let r = Measure.run ?fuel ~sink cfg c in
  (r, p)

(** Profile one CPU-model run (fills only the [cpu] dimension). *)
let profile_cpu ?fuel ~label (c : Measure.compiled) :
    Measure.cpu_metrics * Profile.t =
  let p = Profile.create ~vm:"cpu" ~label in
  let col = collector c p in
  let r = Measure.run_cpu ?fuel ~sink:(Collect.cpu_sink col) c in
  (r, p)

(** Profile a zkVM run and fold the CPU dimension into the same profile,
    so one profile carries every dimension for diffing. *)
let profile_all ?fuel ~label (cfg : Zkopt_zkvm.Config.t)
    (c : Measure.compiled) : Zkopt_zkvm.Vm.metrics * Profile.t =
  let r, p = profile_zkvm ?fuel ~label cfg c in
  let col = collector c p in
  ignore (Measure.run_cpu ?fuel ~sink:(Collect.cpu_sink col) c);
  (r, p)

(** Profile one run of an arbitrary registered backend: the collector
    resolves provenance through the backend's own [site_of_pc] and
    mirrors its prover via [segment_pad], so the same four-dimensional
    profile (exec/paging/padding/cpu) works for zk-native ISAs.  When
    the backend can drive the CPU model, its dimension is folded into
    the same profile. *)
let profile_backend ?fuel ~label (b : Backend.t) (c : Backend.compiled) :
    Backend.measurement * Profile.t =
  let p = Profile.create ~vm:b.Backend.name ~label in
  let col = Collect.create ~site_of_pc:c.Backend.site_of_pc p in
  let sink = Collect.zk_sink col ~segment_pad:b.Backend.segment_pad in
  let r = c.Backend.measure ~vm:b.Backend.name ?fuel ~sink () in
  (match c.Backend.measure_cpu with
  | Some run ->
    let col = Collect.create ~site_of_pc:c.Backend.site_of_pc p in
    ignore (run ?fuel ~sink:(Collect.cpu_sink col) ())
  | None -> ());
  (r, p)
