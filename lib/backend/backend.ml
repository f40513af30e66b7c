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
    - {!compiled} holds closures (it must: execution captures the
      program image), so it cannot be [Marshal]ed.  The [encode] /
      [decode] pair is the disk-cache codec: [encode] serializes the
      pure-data artifact inside the closure ([None] = not disk-cacheable)
      and [decode] rebinds closures around a deserialized artifact.  An
      encoded artifact is self-contained (an RV32 one carries the
      module's globals, all the machine reads of the IR), so decoding
      needs no prepared module.
    - Exit values cross this boundary exactly once, already normalized
      to the canonical int64 encoding ({!Zkopt_core.Measure.exit64}), so
      cross-backend conformance checks are a plain [Int64.equal].
    - [accounting] carries the backend's own conservation check (trace
      totals must reconcile with the per-segment journal), evaluated at
      measurement time where the raw trace is still in hand. *)

open Zkopt_ir
module Measure = Zkopt_core.Measure

type measurement = {
  zk : Measure.zk_metrics;
  accounting : (unit, string) result;
      (** the backend's cost-conservation oracle over this run's trace *)
  faulted : bool;  (** an injected executor fault fired during the run *)
  seg_padded : int list;
      (** per-segment padded trace area (committed rows after the
          backend's pow2 padding; a multi-chip backend reports the sum
          over its tables), in execution order — the proof-size input
          the settlement models consume *)
}

type compiled = {
  static_instrs : int;  (** static code size, backend instructions *)
  site_of_pc : int32 -> (string * string) option;
      (** provenance: pc -> (function, IR block), for the profiler *)
  spills : (string * int) list;
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
          ["risc0"] and ["sp1"]); [sink] observes every accounted event *)
  measure_cpu :
    (?fuel:int ->
    ?sink:Zkopt_zkvm.Machine.sink ->
    unit ->
    Measure.cpu_metrics)
    option;
      (** the RQ3 traditional-CPU contrast model, where the backend's
          instruction stream can drive it; [None] otherwise *)
  encode : unit -> string option;
      (** disk-cache codec, serialize half; [None] = memory-only *)
}

type t = {
  name : string;  (** registry key; the [vm] string in metrics *)
  doc : string;  (** one-line description for [zkbench backends] *)
  zk_native : bool;
      (** true for ISAs designed for arithmetization (no register file,
          multi-chip trace); false for RV32 transpilation backends *)
  schema : string;
      (** codegen-family tag: backends with equal [schema] share
          compiled artifacts, cached under [digest ^ "+" ^ schema] *)
  segment_pad : int -> int;
      (** prover padding residue added to a segment/table of [n] trace
          rows (pow2 padding above the backend's floor); the profiler's
          padding dimension mirrors the backend's prover with this *)
  compile : Modul.t -> compiled;
  decode : Modul.t -> string -> compiled option;
      (** disk-cache codec, deserialize half: rebind closures around an
          [encode]d artifact.  The module argument is unused (an encoded
          artifact is self-contained, and {!compile_cached} passes an
          empty module); the parameter stays only because the benchmark
          wraps this field with that type. *)
}

(* [c] with a measurement memo: a completed run with no fault and no
   sink is kept, keyed by [(vm, fuel)] for [measure] and by [fuel] for
   [measure_cpu], and an equal call is served from the table.  The key
   is the resolved fuel, so a call that names none shares the entry of
   one at {!Zkopt_riscv.Emulator.default_fuel}, every run's default.
   Faulted and sinked calls always execute, and a run that raises stores
   nothing.  No run holds the lock: two domains racing on one key may
   both run it, and store the same result. *)
let memoized (c : compiled) : compiled =
  let mu = Mutex.create () in
  let zk = Hashtbl.create 2 and cpu = Hashtbl.create 1 in
  let remember tbl key run =
    match Mutex.protect mu (fun () -> Hashtbl.find_opt tbl key) with
    | Some r -> r
    | None ->
      let r = run () in
      Mutex.protect mu (fun () -> Hashtbl.replace tbl key r);
      r
  in
  let resolved = Option.value ~default:Zkopt_riscv.Emulator.default_fuel in
  let measure ~vm ?fault ?fuel ?sink () =
    match (fault, sink) with
    | None, None ->
      remember zk (vm, resolved fuel) (fun () -> c.measure ~vm ?fuel ())
    | _ -> c.measure ~vm ?fault ?fuel ?sink ()
  in
  let measure_cpu =
    match c.measure_cpu with
    | None -> None
    | Some run ->
      Some
        (fun ?fuel ?sink () ->
          match sink with
          | None -> remember cpu (resolved fuel) (fun () -> run ?fuel ())
          | Some _ -> run ?fuel ?sink ())
  in
  { c with measure; measure_cpu }

let compile_cached ?cache (b : t) ~fp (m : Modul.t Lazy.t) : compiled =
  match cache with
  | None -> b.compile (Lazy.force m)
  | Some cache ->
    Zkopt_exec.Cache.get_or_compile cache
      ~digest:(fp ^ "+" ^ b.schema)
      ~codec:
        {
          Zkopt_exec.Cache.enc = (fun (c : compiled) -> c.encode ());
          dec = (fun s -> Option.map memoized (b.decode (Modul.create ()) s));
        }
      ~compile:(fun () -> memoized (b.compile (Lazy.force m)))
