(** The first-class zkVM backend interface.

    A backend turns an optimized {!Zkopt_ir.Modul.t} into an executable
    artifact ({!compiled}), executes it to a segmented trace under a cost
    model, prices instructions/paging, and models the prover — the four
    stages the paper measures.  The two RV32 cost configs (risc0, sp1)
    and the zk-native Valida-style backend ([lib/valida]) are registry
    instances ({!Registry}); the harness, profiler, bench experiments and
    the [zkbench] CLI are generic over this interface, so a fourth
    backend is a registry entry, not a refactor.

    Design notes:

    - Backends that share a codegen path (risc0 and sp1 both execute the
      same assembled RV32 image) share a [schema] string: the compile
      cache keys on [digest ^ "+" ^ schema], so one {!compiled} serves
      every backend of the family, and {!compiled.measure} dispatches on
      the backend name it is asked to price for.
    - {!compiled} holds closures (execution captures the program
      image), and it lives in memory only.  The compile cache's disk
      store holds its first level (input keys to module digests, and
      kept runs), never an artifact; {!compile_cached} answers a call
      from kept runs, and compiles an artifact that is not in memory at
      the first call that needs it.
    - Exit values cross this boundary exactly once, already normalized
      to the canonical int64 encoding ({!Zkopt_core.Measure.exit64}), so
      cross-backend conformance checks are a plain [Int64.equal].
    - [accounting] carries the backend's own conservation check (trace
      totals must reconcile with the per-segment journal), evaluated at
      measurement time where the raw trace is still in hand.
    - Every execution path — zkVM pricing and the CPU contrast model —
      observes through one {!Zkopt_zkvm.Machine.sink}; backends never
      expose bespoke callback surfaces. *)

open Zkopt_ir

type measurement = {
  zk : Zkopt_core.Measure.zk_metrics;
  accounting : (unit, string) result;
      (** the backend's cost-conservation oracle over this run's trace *)
  faulted : bool;  (** an injected executor fault fired during the run *)
  seg_padded : int list;
      (** per-segment padded trace area (committed rows after the
          backend's pow2 padding; a multi-chip backend reports the sum
          over its tables), in execution order — the proof-size input
          the settlement models consume *)
}

(** A compiled artifact.  Its static data are functions, because the
    stand-in {!compile_cached} returns for an artifact that is not in
    memory compiles the artifact on their first call, not before. *)
type compiled = {
  static_instrs : unit -> int;  (** static code size, backend instructions *)
  site_of_pc : int32 -> (string * string) option;
      (** provenance: pc -> (function, IR block), for the profiler *)
  spills : unit -> (string * int) list;
      (** per-function static spill instruction counts; empty by
          construction on register-free backends — the paper's
          register-pair-spilling mechanism has nowhere to exist *)
  measure :
    vm:string ->
    ?fault:Zkopt_zkvm.Machine.fault ->
    ?fuel:int ->
    ?sink:Zkopt_zkvm.Machine.sink ->
    unit ->
    measurement;
      (** execute + price + prove for backend [vm] (a name of this
          compiled artifact's family; RV32 artifacts serve both
          ["risc0"] and ["sp1"]); [sink] observes every accounted event.
          An RV32 artifact executes once per fuel for both configs and
          its CPU model: an unfaulted, unsinked call prices the tally of
          that fuel's one unpriced run ({!Zkopt_zkvm.Vm.price}), and
          takes the priced machine only when that run is longer than
          one segment under [vm]'s config ([Rv32.of_compiled]) *)
  measure_cpu :
    (?fuel:int ->
    ?sink:Zkopt_zkvm.Machine.sink ->
    unit ->
    Zkopt_core.Measure.cpu_metrics)
    option;
      (** the RQ3 traditional-CPU contrast model, where the backend's
          instruction stream can drive it; [None] otherwise *)
}

type t = {
  name : string;  (** registry key; the [vm] string in metrics *)
  doc : string;  (** one-line description for [zkbench backends] *)
  zk_native : bool;
      (** true for ISAs designed for arithmetization (no register file,
          multi-chip trace); false for RV32 transpilation backends.  It
          also says whether artifacts drive the CPU model: a backend
          that is not zk-native gives every artifact a [measure_cpu],
          and a zk-native one gives none.  {!compile_cached} relies on
          this to hand out [measure_cpu] before it reads an artifact. *)
  schema : string;
      (** codegen-family tag: backends with equal [schema] share
          compiled artifacts, cached under [digest ^ "+" ^ schema].
          The contract: backends that share a schema and a [name] must
          measure identically, because {!compile_cached} keeps runs
          under the artifact key, the name and the fuel, on disk too.
          A backend that reprices an artifact takes a private schema,
          as [Rv32.backend ~fixed:true] does. *)
  segment_pad : int -> int;
      (** prover padding residue added to a segment/table of [n] trace
          rows (pow2 padding above the backend's floor); the profiler's
          padding dimension mirrors the backend's prover with this *)
  compile : Modul.t -> compiled;
  decode : Modul.t -> string -> compiled option;
      (** unused: every backend sets it to [fun _ _ -> None], and no
          artifact is read back from bytes.  The field stays only
          because the benchmark wraps it with this type. *)
}

(** [compile_cached ?cache b ~fp m]: [b]'s artifact for the module [m],
    whose structural fingerprint is [fp], through the compile cache
    under the key [fp ^ "+" ^ b.schema].  The one artifact lookup every
    engine shares; without [cache] it compiles, and every call executes.
    [m] is forced only to compile, so a caller that resolved [fp] from
    the cache's first level ({!Zkopt_exec.Cache.resolve}) runs no pass
    pipeline for a call that kept runs answer.

    Through a cache the result keeps its runs, so each distinct artifact
    runs once per backend and fuel.  Its [measure] keeps each completed
    run made with no [fault] and no [sink], keyed by [vm] and the
    resolved [fuel] (no [fuel] keys as
    {!Zkopt_riscv.Emulator.default_fuel}, the default of every run), and
    its [measure_cpu] likewise keyed by the resolved [fuel]; an equal
    call returns the kept result without executing.  A kept run with
    [accounting = Ok ()] and [faulted = false], and every kept CPU-model
    run, is also recorded in the cache's first level
    ({!Zkopt_exec.Cache.record}) under a run key: the artifact key, [vm]
    and the resolved fuel (the CPU model's has no [vm]).  A call the
    table lacks looks there first, so neither an evicted artifact nor a
    fresh cache over the same disk store executes a run it kept.  A
    faulted or sinked call always executes and is never kept, and a run
    that raises keeps nothing.  [measure_cpu] is present iff
    [not b.zk_native].

    One wrapper keeps the runs, in one of two homes.  An artifact
    resident in the cache's memory ({!Zkopt_exec.Cache.mem}, which
    counts nothing) is returned as the cache holds it: a counted hit,
    whose wrapper lives and is evicted with the artifact.  Any other
    artifact (never compiled, or evicted) is not compiled yet: the
    result is a wrapper made for this call, which looks the artifact up
    (or compiles it from this call's [m] and puts it into the cache)
    only when a call needs it: a run nothing keeps, a faulted or sinked
    call, or a use of its static data.  The wrapper itself is never put
    into the cache, so it forces only the module of the call that made
    it.  The cache's stats count those lookups only, so a rerun over a
    warm store counts none. *)
val compile_cached :
  ?cache:compiled Zkopt_exec.Cache.t -> t -> fp:string -> Modul.t Lazy.t -> compiled

(** {2 Kept runs as first-level values}

    The text form of a run {!compile_cached} keeps in the compile
    cache's first level: {!Zkopt_core.Measure}'s field codec joined
    with spaces (for a zkVM run, then the comma-separated [seg_padded]),
    and a final ["."] field.  Only a run with [accounting = Ok ()] and
    [faulted = false] is written, so {!decode_run} restores those.  The
    decoders are total: a cut value, a wrong field count or random bytes
    give [None]. *)

val encode_run : measurement -> string
val decode_run : string -> measurement option
val encode_cpu_run : Zkopt_core.Measure.cpu_metrics -> string
val decode_cpu_run : string -> Zkopt_core.Measure.cpu_metrics option
