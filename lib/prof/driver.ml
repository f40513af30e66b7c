(** The one profiling driver: run a compiled artifact with an
    attribution collector installed, and return both the ordinary
    metrics and the profile.

    The profiled run is bit-identical to an unprofiled one — the sink
    only observes costs the executor was already accounting — so the
    measurement returned here matches what the artifact's [measure]
    reports without a profiler attached. *)

module Backend = Zkopt_backend.Backend

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
