(** Traditional-CPU timing model (the paper's RQ3 "x86" contrast point).

    The same RV32 instruction stream is replayed through a classic cost
    model: variable instruction latencies (division is expensive),
    register-dependence-limited superscalar issue, an L1 LRU cache with a
    miss penalty, and a 2-bit branch predictor with a misprediction
    bubble.  This reproduces every qualitative divergence the paper leans
    on — div-to-shifts wins here and loses on zkVMs, branchless selects
    beat unpredictable branches, unrolling benefits from ILP, and loop
    fission benefits locality.

    Substitution note (see DESIGN.md): the paper measured native x86
    binaries; we replay RISC-V code under an x86-class cost model, which
    preserves the *direction and rough magnitude* of optimization effects
    without building a second backend. *)

open Zkopt_riscv

type params = {
  issue_width : float;           (* instructions per cycle, dependence permitting *)
  lat_default : float;
  lat_mul : float;
  lat_div : float;
  lat_load_hit : float;
  lat_store : float;
  miss_penalty : float;
  mispredict_penalty : float;
  ghz : float;
  precompile_native_cycles : string -> float;
      (* native cost of the primitive a zkVM precompile replaces *)
}

let default_params =
  {
    issue_width = 4.0;
    lat_default = 1.0;
    lat_mul = 3.0;
    lat_div = 24.0;
    lat_load_hit = 4.0;
    lat_store = 1.0;
    miss_penalty = 90.0;
    mispredict_penalty = 14.0;
    ghz = 3.0;
    precompile_native_cycles =
      (fun name ->
        match name with
        | "sha256_compress" -> 1200.0
        | "keccakf" -> 1400.0
        | "ecdsa_verify" -> 220_000.0
        | "ed25519_verify" -> 140_000.0
        | "bigint_mulmod" -> 900.0
        | _ -> 1000.0);
  }

type result = {
  cycles : float;
  time_s : float;
  retired : int;
  cache_hits : int;
  cache_misses : int;
  mispredicts : int;
  exit_value : int32;
}

let lat_of params (i : Isa.t) =
  match i with
  | Isa.Op ((Isa.DIV | DIVU | REM | REMU), _, _, _) -> params.lat_div
  | Op ((Isa.MUL | MULH | MULHSU | MULHU), _, _, _) -> params.lat_mul
  | Store _ -> params.lat_store
  | _ -> params.lat_default

(** Replay module [m] (compiled as [cg]) through the CPU model.

    [sink] optionally attributes CPU cycles to the pc that spent them
    (through {!Zkopt_zkvm.Machine.sink}'s [on_cpu_retire] channel): each
    instruction is charged its issue-clock advance, and the trailing
    memory-port drain is charged to the last retired pc, so the attributed
    costs sum exactly to the reported [cycles]. *)
let run ?(params = default_params) ?(fuel = 500_000_000)
    ?(sink : Zkopt_zkvm.Machine.sink option)
    (cg : Codegen.t) (m : Zkopt_ir.Modul.t) : result =
  let cache = Cache.create () in
  let pred = Predictor.create () in
  (* per-instruction source/destination register lists, precomputed per
     code index so the hot loop neither rebuilds an [Asm.item] nor
     re-derives the lists on every retire (same lists, same order — the
     float folds below are order-sensitive and checkpoint-pinned) *)
  let code = cg.Codegen.program.Asm.code in
  let uses_of = Array.map (fun i -> Regalloc.item_uses (Asm.Ins i)) code in
  let defs_of = Array.map (fun i -> Regalloc.item_defs (Asm.Ins i)) code in
  (* ready.(r) = cycle at which register r's value is available *)
  let ready = Array.make 32 0.0 in
  let clock = ref 0.0 in        (* last issue cycle *)
  let fetch_stall = ref 0.0 in  (* earliest next issue due to mispredicts *)
  let div_busy_until = ref 0.0 in  (* the divider is not pipelined *)
  let mem_busy_until = ref 0.0 in  (* one outstanding cache miss at a time *)
  let hooks = Emulator.no_hooks () in
  (* events recorded during the step, consumed when timing it *)
  let mem_events = ref [] in
  let branch_event = ref None in
  let precompile_event = ref None in
  hooks.on_mem <- (fun ~write addr bytes -> mem_events := (write, addr, bytes) :: !mem_events);
  hooks.on_branch <- (fun ~pc ~taken target -> branch_event := Some (pc, taken, target));
  hooks.on_precompile <- (fun name -> precompile_event := Some name);
  let emu = Emulator.create ~hooks cg.Codegen.program m in
  let time_instr idx (i : Isa.t) =
    let issue_gap = 1.0 /. params.issue_width in
    let srcs = uses_of.(idx) in
    let dsts = defs_of.(idx) in
    let dep_ready =
      List.fold_left (fun acc r -> Float.max acc ready.(r)) 0.0 srcs
    in
    let is_div =
      match i with
      | Isa.Op ((Isa.DIV | DIVU | REM | REMU), _, _, _) -> true
      | _ -> false
    in
    let issue = Float.max (!clock +. issue_gap) (Float.max dep_ready !fetch_stall) in
    let issue = if is_div then Float.max issue !div_busy_until else issue in
    clock := issue;
    let lat = ref (lat_of params i) in
    if is_div then div_busy_until := issue +. params.lat_div;
    (* memory: cache hit/miss on each access; misses serialize on the
       memory port (fill-buffer bandwidth), and store misses consume
       bandwidth without stalling dependents *)
    List.iter
      (fun (write, addr, _bytes) ->
        let hit = Cache.access cache addr in
        if not hit then begin
          let start = Float.max issue !mem_busy_until in
          mem_busy_until := start +. params.miss_penalty;
          if not write then
            lat := !lat +. (!mem_busy_until -. issue)
        end
        else if not write then lat := Float.max !lat params.lat_load_hit)
      !mem_events;
    mem_events := [];
    (* precompile: native cost of the primitive *)
    (match !precompile_event with
    | Some name ->
      lat := !lat +. params.precompile_native_cycles name;
      precompile_event := None
    | None -> ());
    (* branches: conditional mispredicts stall the front end *)
    (match (!branch_event, i) with
    | Some (pc, taken, _), Isa.Branch _ ->
      if not (Predictor.access pred pc ~taken) then
        fetch_stall := issue +. params.mispredict_penalty;
      branch_event := None
    | Some _, _ -> branch_event := None
    | None, _ -> ());
    let completion = issue +. !lat in
    List.iter (fun r -> if r <> 0 then ready.(r) <- completion) dsts
  in
  let budget = ref fuel in
  let last = ref None in
  while not emu.Emulator.halted do
    if !budget <= 0 then raise (Emulator.Out_of_fuel fuel);
    decr budget;
    let pc = emu.Emulator.pc in
    let idx =
      Int32.to_int (Int32.sub pc cg.Codegen.program.Asm.base) / 4
    in
    let ins = code.(idx) in
    Emulator.step emu;
    (match sink with
    | Some s ->
      let before = !clock in
      time_instr idx ins;
      s.Zkopt_zkvm.Machine.on_cpu_retire ~pc ins ~cost:(!clock -. before);
      last := Some (pc, ins)
    | None -> time_instr idx ins)
  done;
  let cycles = Float.max !clock !mem_busy_until in
  (match (sink, !last) with
  | Some s, Some (pc, ins) when cycles > !clock ->
    s.Zkopt_zkvm.Machine.on_cpu_retire ~pc ins ~cost:(cycles -. !clock)
  | _ -> ());
  {
    cycles;
    time_s = cycles /. (params.ghz *. 1e9);
    retired = emu.Emulator.retired;
    cache_hits = cache.Cache.hits;
    cache_misses = cache.Cache.misses;
    mispredicts = pred.Predictor.mispredicts;
    exit_value = emu.Emulator.exit_value;
  }
