(** The hook-driven reference zkVM executor: {!Ref_emulator} replayed
    under accounting hooks, with page residency in [Hashtbl]s.

    Paging model (RISC Zero-style, parameterized): guest memory is split
    into [page_bytes] pages.  Within a segment, the first touch of a page
    charges [page_in_cost]; at segment close, every dirtied page charges
    [page_out_cost] and the touched-set resets (the next segment must
    page everything in again).  Instruction fetch touches the code page.

    Slow but independently trustworthy: [test/test_machine.ml] pins
    {!Zkopt_zkvm.Machine.run} to {!run} bit for bit, under every
    injected {!Zkopt_zkvm.Machine.fault} and with or without a sink. *)

open Zkopt_ir
open Zkopt_riscv
module Config = Zkopt_zkvm.Config
module Machine = Zkopt_zkvm.Machine

type state = {
  cfg : Config.t;
  mutable user : int;             (* user cycles, current segment *)
  mutable paging : int;           (* paging cycles, current segment *)
  mutable total_user : int;
  mutable total_paging : int;
  mutable page_ins : int;
  mutable page_outs : int;
  mutable segs : Machine.segment list;
  touched : (int, unit) Hashtbl.t;
  dirty : (int, int32) Hashtbl.t;   (* page -> pc that first dirtied it *)
  mutable cur_pc : int32;           (* pc of the currently retiring instr *)
  mutable loads : int;
  mutable stores : int;
  mutable branches : int;
  mutable precompiles : int;
  mutable faulted : bool;
}

(* the no-sink path (the 0l dirty marker is a static constant — no
   per-write allocation) *)
let touch st ~write addr =
  let page = Int32.to_int addr land 0xFFFF_FFFF / st.cfg.Config.page_bytes in
  if not (Hashtbl.mem st.touched page) then begin
    Hashtbl.replace st.touched page ();
    st.paging <- st.paging + st.cfg.Config.page_in_cost;
    st.page_ins <- st.page_ins + 1
  end;
  if write && not (Hashtbl.mem st.dirty page) then
    Hashtbl.replace st.dirty page 0l

let touch_attr (s : Machine.sink) st ~write addr =
  let page = Int32.to_int addr land 0xFFFF_FFFF / st.cfg.Config.page_bytes in
  if not (Hashtbl.mem st.touched page) then begin
    Hashtbl.replace st.touched page ();
    st.paging <- st.paging + st.cfg.Config.page_in_cost;
    st.page_ins <- st.page_ins + 1;
    s.Machine.on_page_in ~pc:st.cur_pc ~cost:st.cfg.Config.page_in_cost
  end;
  if write && not (Hashtbl.mem st.dirty page) then
    Hashtbl.replace st.dirty page st.cur_pc

let close_segment ?fault ?(final = false) ?sink st =
  let outs = Hashtbl.length st.dirty in
  let out_cost = st.cfg.Config.page_out_cost in
  let charged =
    match fault with
    | Some Machine.Dropped_page_out ->
      let charged = (outs + 1) / 2 in
      if charged < outs then st.faulted <- true;
      charged
    | _ -> outs
  in
  st.paging <- st.paging + (charged * out_cost);
  (match sink with
  | Some (s : Machine.sink) ->
    (* charge write-backs to the first-dirtying pcs; under the injected
       accounting fault only the actually-charged count is attributed, so
       the attribution stays conserved against the (buggy) totals *)
    let remaining = ref charged in
    Hashtbl.iter
      (fun _page pc ->
        if !remaining > 0 then begin
          decr remaining;
          s.Machine.on_page_out ~pc ~cost:out_cost
        end)
      st.dirty
  | None -> ());
  st.page_outs <- st.page_outs + outs;
  (match sink with
  | Some (s : Machine.sink) ->
    s.Machine.on_segment ~pc:st.cur_pc ~user:st.user ~paging:st.paging
  | None -> ());
  st.segs <-
    { Machine.user_cycles = st.user; paging_cycles = st.paging } :: st.segs;
  (match fault with
  | Some Machine.Truncated_final_segment when final && st.user > 1 ->
    st.faulted <- true;
    st.total_user <- st.total_user + (st.user / 2)
  | _ -> st.total_user <- st.total_user + st.user);
  st.total_paging <- st.total_paging + st.paging;
  st.user <- 0;
  st.paging <- 0;
  Hashtbl.reset st.touched;
  Hashtbl.reset st.dirty

(** Execute module [m] (already compiled to [cg]) under configuration
    [cfg].  Same contract as
    [Machine.run ?fault ?fuel ?sink (Machine.decode cfg cg m)]. *)
let run ?fault ?(fuel = 500_000_000) ?sink
    (cfg : Config.t) (cg : Codegen.t) (m : Modul.t) : Machine.result =
  let st =
    {
      cfg;
      user = 0;
      paging = 0;
      total_user = 0;
      total_paging = 0;
      page_ins = 0;
      page_outs = 0;
      segs = [];
      touched = Hashtbl.create 64;
      dirty = Hashtbl.create 64;
      cur_pc = 0l;
      loads = 0;
      stores = 0;
      branches = 0;
      precompiles = 0;
      faulted = false;
    }
  in
  let hooks = Ref_emulator.no_hooks () in
  let boundary_pending = ref false in
  let silent_halt = ref false in
  let boundary ins =
    if st.user >= cfg.Config.segment_limit then begin
      boundary_pending := true;
      match (fault, ins) with
      | Some Machine.Silent_halt_on_boundary_jalr, Isa.Jalr _ ->
        (* the shard boundary landed on an indirect jump (a function
           return): the buggy executor drops the rest of the execution
           on the floor yet still emits a provable, verifying trace *)
        st.faulted <- true;
        silent_halt := true
      | _ -> ()
    end
  in
  (* the sink is selected once, here: with no sink installed, the hook
     closures below never test [sink] per event *)
  (match sink with
  | None ->
    hooks.on_instr <-
      (fun ~pc ins ->
        touch st ~write:false pc;
        st.user <- st.user + Config.instr_cost cfg ins;
        (match ins with
        | Isa.Load _ -> st.loads <- st.loads + 1
        | Isa.Store _ -> st.stores <- st.stores + 1
        | Isa.Branch _ | Jal _ | Jalr _ -> st.branches <- st.branches + 1
        | _ -> ());
        boundary ins);
    hooks.on_mem <- (fun ~write addr _bytes -> touch st ~write addr);
    hooks.on_precompile <-
      (fun name ->
        st.precompiles <- st.precompiles + 1;
        st.user <- st.user + Config.precompile_cost cfg name)
  | Some (s : Machine.sink) ->
    hooks.on_instr <-
      (fun ~pc ins ->
        st.cur_pc <- pc;
        touch_attr s st ~write:false pc;
        let cost = Config.instr_cost cfg ins in
        st.user <- st.user + cost;
        s.Machine.on_retires (Machine.retire1 ~pc ins ~cost);
        (match ins with
        | Isa.Load _ -> st.loads <- st.loads + 1
        | Isa.Store _ -> st.stores <- st.stores + 1
        | Isa.Branch _ | Jal _ | Jalr _ -> st.branches <- st.branches + 1
        | _ -> ());
        boundary ins);
    hooks.on_mem <- (fun ~write addr _bytes -> touch_attr s st ~write addr);
    hooks.on_precompile <-
      (fun name ->
        st.precompiles <- st.precompiles + 1;
        let cost = Config.precompile_cost cfg name in
        st.user <- st.user + cost;
        s.Machine.on_precompile ~pc:st.cur_pc ~name ~cost));
  let emu = Ref_emulator.create ~hooks cg.Codegen.program m in
  let budget = ref fuel in
  while (not emu.Ref_emulator.halted) && not !silent_halt do
    if !budget <= 0 then raise (Emulator.Out_of_fuel fuel);
    decr budget;
    Ref_emulator.step emu;
    if !boundary_pending && not !silent_halt then begin
      boundary_pending := false;
      close_segment ?fault ?sink st
    end
  done;
  close_segment ?fault ~final:true ?sink st;
  let exit_value =
    match fault with
    | Some Machine.Corrupt_exit_value ->
      st.faulted <- true;
      Int32.logxor emu.Ref_emulator.exit_value 0x5A5A5A5Al
    | _ -> emu.Ref_emulator.exit_value
  in
  {
    Machine.exit_value;
    total_cycles = st.total_user + st.total_paging;
    user_cycles = st.total_user;
    paging_cycles = st.total_paging;
    page_ins = st.page_ins;
    page_outs = st.page_outs;
    segments = List.rev st.segs;
    retired = emu.Ref_emulator.retired;
    loads = st.loads;
    stores = st.stores;
    branches = st.branches;
    precompile_calls = st.precompiles;
    faulted = st.faulted;
  }
