(** The historical CPU timing driver, kept as the oracle for
    {!Zkopt_cpu.Timing.run}.

    It replays the boxed reference emulator ({!Ref_emulator}) under
    closure hooks, collecting each step's memory, branch and
    precompile events in lists and timing the instruction after it
    steps.  It shares {!Zkopt_cpu.Timing.params}, {!Zkopt_cpu.Cache} and
    {!Zkopt_cpu.Predictor} with the library, so [test/test_cpu.ml] pins
    the library's stream fold to this driver bit for bit.  Slow: it
    allocates a list cell per memory event and boxes every float. *)

open Zkopt_riscv
module Timing = Zkopt_cpu.Timing
module Cache = Zkopt_cpu.Cache
module Predictor = Zkopt_cpu.Predictor

let unsigned (a : int32) = Int32.to_int a land 0xFFFF_FFFF

let run ?(params = Timing.default_params) ?(fuel = 500_000_000)
    ?(sink : Zkopt_zkvm.Machine.sink option)
    (cg : Codegen.t) (m : Zkopt_ir.Modul.t) : Timing.result =
  let cache = Cache.create () in
  let pred = Predictor.create () in
  let code = cg.Codegen.program.Asm.code in
  let uses_of = Array.map (fun i -> Regalloc.item_uses (Asm.Ins i)) code in
  let defs_of = Array.map (fun i -> Regalloc.item_defs (Asm.Ins i)) code in
  (* ready.(r) = cycle at which register r's value is available *)
  let ready = Array.make 32 0.0 in
  let clock = ref 0.0 in        (* last issue cycle *)
  let fetch_stall = ref 0.0 in  (* earliest next issue due to mispredicts *)
  let div_busy_until = ref 0.0 in  (* the divider is not pipelined *)
  let mem_busy_until = ref 0.0 in  (* one outstanding cache miss at a time *)
  let hooks = Ref_emulator.no_hooks () in
  (* events recorded during the step, consumed when timing it *)
  let mem_events = ref [] in
  let branch_event = ref None in
  let precompile_event = ref None in
  hooks.on_mem <- (fun ~write addr bytes -> mem_events := (write, addr, bytes) :: !mem_events);
  hooks.on_branch <- (fun ~pc ~taken target -> branch_event := Some (pc, taken, target));
  hooks.on_precompile <- (fun name -> precompile_event := Some name);
  let emu = Ref_emulator.create ~hooks cg.Codegen.program m in
  let time_instr idx (i : Isa.t) =
    let issue_gap = 1.0 /. params.Timing.issue_width in
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
    let lat = ref (Timing.lat_of params i) in
    if is_div then div_busy_until := issue +. params.Timing.lat_div;
    (* memory: cache hit/miss on each access; misses serialize on the
       memory port (fill-buffer bandwidth), and store misses consume
       bandwidth without stalling dependents *)
    List.iter
      (fun (write, addr, _bytes) ->
        let hit = Cache.access cache (unsigned addr) in
        if not hit then begin
          let start = Float.max issue !mem_busy_until in
          mem_busy_until := start +. params.Timing.miss_penalty;
          if not write then
            lat := !lat +. (!mem_busy_until -. issue)
        end
        else if not write then lat := Float.max !lat params.Timing.lat_load_hit)
      !mem_events;
    mem_events := [];
    (* precompile: native cost of the primitive *)
    (match !precompile_event with
    | Some name ->
      lat := !lat +. params.Timing.precompile_native_cycles name;
      precompile_event := None
    | None -> ());
    (* branches: conditional mispredicts stall the front end *)
    (match (!branch_event, i) with
    | Some (pc, taken, _), Isa.Branch _ ->
      if not (Predictor.access pred (unsigned pc) ~taken) then
        fetch_stall := issue +. params.Timing.mispredict_penalty;
      branch_event := None
    | Some _, _ -> branch_event := None
    | None, _ -> ());
    let completion = issue +. !lat in
    List.iter (fun r -> if r <> 0 then ready.(r) <- completion) dsts
  in
  let budget = ref fuel in
  let last = ref None in
  while not emu.Ref_emulator.halted do
    if !budget <= 0 then raise (Emulator.Out_of_fuel fuel);
    decr budget;
    let pc = emu.Ref_emulator.pc in
    let idx =
      Int32.to_int (Int32.sub pc cg.Codegen.program.Asm.base) / 4
    in
    Ref_emulator.step emu;
    (* looked up once the step has succeeded, so a pc outside the image
       raises the emulator's [Trap] rather than an index error here *)
    let ins = code.(idx) in
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
    Timing.cycles;
    time_s = cycles /. (params.Timing.ghz *. 1e9);
    retired = emu.Ref_emulator.retired;
    cache_hits = cache.Cache.hits;
    cache_misses = cache.Cache.misses;
    mispredicts = pred.Predictor.mispredicts;
    exit_value = emu.Ref_emulator.exit_value;
  }
