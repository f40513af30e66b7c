(** The decoded-stream zkVM machine: the raw-speed interpreter core and
    the closed event interface every measurement path observes through.

    A guest program is pre-decoded once ({!decode}) into a flat
    instruction stream (dense opcodes, operand slots and packed cost
    words in [int] arrays), then executed ({!run}) with untagged
    native-int registers, unsigned-int addressing and epoch-stamped page
    residency — no [Int32] allocation and no hashing anywhere in the hot
    loop.  An unpriced mode ({!tally}) runs the same semantics without
    pricing them; it counts what pricing needs and drives the CPU timing
    model.  It is the library's one RV32 interpreter.  Accounting
    is bit-for-bit identical to the test-only reference executor
    ([Ref_executor.run] in [test/oracle/]); [test/test_machine.ml]
    enforces the equivalence, including under every injected {!fault}. *)

open Zkopt_ir
open Zkopt_riscv

type fault =
  | No_fault
  | Silent_halt_on_boundary_jalr
      (** §4.2: a shard boundary on an indirect jump silently drops the
          rest of the execution; checksum diverges. *)
  | Dropped_page_out
      (** Accounting bug: every other dirtied page's write-back cost is
          dropped at segment close even though the page-out itself is
          still counted. *)
  | Truncated_final_segment
      (** The final segment's tail is dropped from the reported cycle
          totals while the per-segment trace keeps the full count. *)
  | Corrupt_exit_value
      (** The journaled exit value is corrupted on halt. *)

type segment = {
  user_cycles : int;
  paging_cycles : int;
}

type result = {
  exit_value : int32;
  total_cycles : int;
  user_cycles : int;
  paging_cycles : int;
  page_ins : int;
  page_outs : int;
  segments : segment list;        (* in execution order *)
  retired : int;
  loads : int;
  stores : int;
  branches : int;
  precompile_calls : int;
  faulted : bool;                 (* the injected bug fired *)
}

(** {1 The sink interface}

    One closed observation surface for the zkVM profiler, the CPU timing
    model and the tests.  A sink is
    selected once at run entry; with none installed the machine's loop
    performs zero per-instruction indirect calls. *)

(** A run of retired instructions.  [Batch] views the machine's internal
    buffers directly — valid only for the duration of the callback;
    consumers must fold immediately (see {!iter_retires}) and must not
    retain the arrays.  [One] carries a single retire (the reference
    executor and the Valida frame machine emit these). *)
type retire_batch =
  | Batch of {
      base : int32;               (* address of isa.(0) *)
      isa : Isa.t array;          (* decoded image, instruction-indexed *)
      idxs : int array;           (* retired instruction indexes *)
      costs : int array;          (* cycle cost charged per retire *)
      n : int;                    (* live prefix length of idxs/costs *)
    }
  | One of { pc : int32; ins : Isa.t; cost : int }

(** Event sink.  The identities a healthy run preserves, per dimension:

    - sum of retire + [on_precompile] costs = [user_cycles]
    - sum of [on_page_in] + [on_page_out] costs = [paging_cycles]
    - the [on_segment] events replay the segment list exactly

    Page-ins are charged to the pc whose fetch/access first touched the
    page; page-outs to the pc that first dirtied the page in the segment;
    segment events to the pc retiring when the segment closed.
    [on_cpu_retire] is the CPU timing model's channel (float cost in
    model cycles): [Zkopt_cpu.Timing.run] calls it once per retire, and
    once more for the trailing memory drain, while it folds a {!cpu}
    stream; the machine's loops never call it. *)
type sink = {
  on_retires : retire_batch -> unit;
  on_precompile : pc:int32 -> name:string -> cost:int -> unit;
  on_page_in : pc:int32 -> cost:int -> unit;
  on_page_out : pc:int32 -> cost:int -> unit;
  on_segment : pc:int32 -> user:int -> paging:int -> unit;
  on_cpu_retire : pc:int32 -> Isa.t -> cost:float -> unit;
}

(** Build a sink; every omitted channel is a no-op. *)
val sink :
  ?on_retires:(retire_batch -> unit) ->
  ?on_precompile:(pc:int32 -> name:string -> cost:int -> unit) ->
  ?on_page_in:(pc:int32 -> cost:int -> unit) ->
  ?on_page_out:(pc:int32 -> cost:int -> unit) ->
  ?on_segment:(pc:int32 -> user:int -> paging:int -> unit) ->
  ?on_cpu_retire:(pc:int32 -> Isa.t -> cost:float -> unit) ->
  unit ->
  sink

(** Wrap a single retire as a batch. *)
val retire1 : pc:int32 -> Isa.t -> cost:int -> retire_batch

(** Fold over every retire of a batch, in retirement order. *)
val iter_retires :
  (pc:int32 -> Isa.t -> cost:int -> unit) -> retire_batch -> unit

(** {1 Decode and run} *)

(** A program pre-decoded for one {!Config.t} (the config enters only
    through the packed per-instruction cost words). *)
type code

(** Pre-decode [cg]'s assembled program.  Raises
    [Zkopt_riscv.Emulator.Trap] when the program has no [main]. *)
val decode : Config.t -> Codegen.t -> Modul.t -> code

(** {1 Two modes}

    The machine has two loops over decoded code, and each run takes one.
    The priced loop ({!run}) charges every cost word, page event and
    segment of the config [code] was decoded under.  The unpriced loop
    ({!tally}) executes the same instructions and touches the same pages,
    raises the same traps and [Out_of_fuel], but charges nothing: it
    counts what the cost rules read, so [Vm.price] can turn one unpriced
    run into any config's metrics while the run fits one segment under
    that config. *)

(** {2 The priced mode} *)

(** Execute pre-decoded code on a fresh machine.  Accounting, trap
    messages and fault behavior are bit-for-bit those of the reference
    executor ([Ref_executor.run] in [test/oracle/]); a sink observes them
    without perturbing them. *)
val run : ?fault:fault -> ?fuel:int -> ?sink:sink -> code -> result

(** {2 The unpriced mode} *)

(** The stream the CPU timing model folds ([Zkopt_cpu.Timing.run]).

    [on_retire idx fact] follows every retired instruction, after it has
    executed.  [idx] is its index in the decoded image; [fact] is the one
    dynamic fact the model needs: the unsigned effective address of a
    load or store, 1 if a conditional branch was taken and 0 if not, for
    an [ecall] the index of the precompile it ran
    ({!Zkopt_riscv.Emulator.precompile_signatures}) or -1 for a halt, and
    0 for everything else.

    [on_extern ~write addr] reports each word a precompile's extern code
    reads or writes at unsigned [addr], in program order, before its
    [ecall]'s [on_retire]. *)
type cpu = {
  on_retire : int -> int -> unit;
  on_extern : write:bool -> int -> unit;
}

(** What an unpriced run counts: everything the cost rules read, in
    O(1) words.  A page is counted once however it was reached: by
    fetch, by the address of a load or store, or by a word a
    precompile's extern code reads or writes.  Extern accesses touch
    and dirty pages but are not loads or stores. *)
type tally = {
  exit_value : int32;
  retired : int;
  class_retires : int array;
      (** retires per cost class, indexed by {!Config.cost_class} *)
  loads : int;
  stores : int;
  branches : int;  (** branches and jumps, as {!result} counts them *)
  precompile_calls : (string * int) list;
      (** calls per precompile called, by name, in the order of each
          one's first call *)
  pages_touched : int;  (** distinct pages touched *)
  pages_dirtied : int;  (** distinct pages dirtied *)
  page_bytes : int;  (** the page size of the config [code] was decoded under *)
}

(** Execute pre-decoded code on a fresh machine, unpriced, and report
    each retire to [cpu] if given.  Only the page size of the config
    [code] was decoded under enters the run.  It raises what {!run}
    raises on the same code and fuel, except for a precompile that the
    config does not price: {!run} raises [Invalid_argument] at its call,
    and [Vm.price] does when it prices the tally. *)
val tally : ?fuel:int -> ?cpu:cpu -> code -> tally

(** {2 Run counters}

    Runs since the program started, bumped once at the entry of each
    {!run} and each {!tally}, whether the run completes or raises.
    Tests and gates read them to count executions. *)

val priced_runs : int Atomic.t
val unpriced_runs : int Atomic.t
