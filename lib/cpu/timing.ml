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
    without building a second backend.

    The instruction stream comes from the decoded machine's CPU mode
    ({!Zkopt_zkvm.Machine.cpu}): each retire arrives as an instruction
    index plus one dynamic fact (an effective address, a branch outcome,
    a precompile index).  Per-instruction tables — use and def
    registers, latency class, base latency — are built once per run, and
    the fold over the stream allocates nothing per instruction.
    [test/oracle/ref_cpu.ml] keeps the historical driver, the boxed
    emulator under closure hooks, as the oracle [test/test_cpu.ml] holds
    this fold to, bit for bit. *)

open Zkopt_riscv
module Machine = Zkopt_zkvm.Machine

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

(* Latency classes: what a retire's dynamic fact means to the model. *)
let c_plain = 0
let c_div = 1     (* the unpipelined divider *)
let c_load = 2
let c_store = 3
let c_branch = 4  (* conditional: the only class that consults the predictor *)
let c_ecall = 5

let class_of (i : Isa.t) =
  match i with
  | Isa.Op ((Isa.DIV | DIVU | REM | REMU), _, _, _) -> c_div
  | Load _ -> c_load
  | Store _ -> c_store
  | Branch _ -> c_branch
  | Ecall -> c_ecall
  | _ -> c_plain

(* The model's clocks.  An all-float record stores its fields unboxed, so
   updating them allocates nothing. *)
type clocks = {
  mutable clock : float;           (* last issue cycle *)
  mutable fetch_stall : float;     (* earliest next issue due to mispredicts *)
  mutable div_busy_until : float;  (* the divider is not pipelined *)
  mutable mem_busy_until : float;  (* one outstanding cache miss at a time *)
}

(* [Float.max] without its NaN and signed-zero handling.  The model's
   quantities are sums of finite non-negative parameters, never NaN and
   never -0.0, and on such values the two agree bit for bit.
   [Float.max]'s two [sign_bit] calls per use made a CPU run of npb-is
   1.7x slower (1.47 vs 0.87 ms on a 2-core x86-64 container). *)
let[@inline] fmax (x : float) y = if y > x then y else x

(** Replay module [m] (compiled as [cg]) through the CPU model.

    [sink] optionally attributes CPU cycles to the pc that spent them
    (through {!Zkopt_zkvm.Machine.sink}'s [on_cpu_retire] channel): each
    instruction is charged its issue-clock advance, and the trailing
    memory-port drain is charged to the last retired pc, so the attributed
    costs sum exactly to the reported [cycles]. *)
let run ?(params = default_params) ?(fuel = 500_000_000)
    ?(sink : Machine.sink option) (cg : Codegen.t) (m : Zkopt_ir.Modul.t) :
    result =
  let prog = cg.Codegen.program in
  let code = prog.Asm.code in
  let n = Array.length code in
  (* per-instruction tables, from the same use/def lists the register
     allocator sees: an absent source reads x0, whose ready time stays
     0.0, and a [dst] of 0 writes nothing *)
  let src1 = Array.make n 0 and src2 = Array.make n 0 in
  let dst = Array.make n 0 in
  Array.iteri
    (fun i ins ->
      (match Regalloc.item_uses (Asm.Ins ins) with
      | [] -> ()
      | [ a ] -> src1.(i) <- a
      | [ a; b ] ->
        src1.(i) <- a;
        src2.(i) <- b
      | _ -> assert false (* an RV32 instruction reads at most two registers *));
      match Regalloc.item_defs (Asm.Ins ins) with
      | [] -> ()
      | d :: _ -> dst.(i) <- d)
    code;
  let klass = Array.map class_of code in
  let base_lat = Array.map (lat_of params) code in
  let native =
    Array.map
      (fun (name, _) -> params.precompile_native_cycles name)
      Emulator.precompile_signatures
  in
  let base = Int32.to_int prog.Asm.base land 0xFFFF_FFFF in
  let issue_gap = 1.0 /. params.issue_width in
  let cache = Cache.create () in
  let pred = Predictor.create () in
  (* ready.(r) = cycle at which register r's value is available *)
  let ready = Array.make 32 0.0 in
  let k =
    { clock = 0.0; fetch_stall = 0.0; div_busy_until = 0.0;
      mem_busy_until = 0.0 }
  in
  (* One data access by an instruction issued at [issue]; returns its
     latency so far.  Misses serialize on the memory port (fill-buffer
     bandwidth), and store misses consume bandwidth without stalling
     dependents. *)
  let[@inline] access ~write addr issue lat =
    if not (Cache.access cache addr) then begin
      k.mem_busy_until <- fmax issue k.mem_busy_until +. params.miss_penalty;
      if write then lat else lat +. (k.mem_busy_until -. issue)
    end
    else if write then lat
    else fmax lat params.lat_load_hit
  in
  (* the running precompile's extern accesses, (addr lsl 1) lor write *)
  let ext = ref (Array.make 64 0) and ext_n = ref 0 in
  let on_extern ~write addr =
    if !ext_n = Array.length !ext then begin
      let bigger = Array.make (2 * !ext_n) 0 in
      Array.blit !ext 0 bigger 0 !ext_n;
      ext := bigger
    end;
    !ext.(!ext_n) <- (addr lsl 1) lor Bool.to_int write;
    incr ext_n
  in
  (* An ecall's extern accesses replay newest-first, as the boxed model's
     prepended event list did; no suite program tells the two orders
     apart.  Then the precompile's native cost.  Ecall defines no
     register, so that latency reaches no ready time. *)
  let time_ecall idx pre issue =
    let lat = ref base_lat.(idx) in
    for j = !ext_n - 1 downto 0 do
      let e = !ext.(j) in
      lat := access ~write:(e land 1 = 1) (e lsr 1) issue !lat
    done;
    ext_n := 0;
    if pre >= 0 then lat := !lat +. native.(pre);
    let d = dst.(idx) in
    if d <> 0 then ready.(d) <- issue +. !lat
  in
  let time idx fact =
    let issue =
      fmax (k.clock +. issue_gap)
        (fmax (fmax ready.(src1.(idx)) ready.(src2.(idx))) k.fetch_stall)
    in
    let cl = klass.(idx) in
    let issue = if cl = c_div then fmax issue k.div_busy_until else issue in
    k.clock <- issue;
    if cl = c_div then k.div_busy_until <- issue +. params.lat_div;
    if cl = c_ecall then time_ecall idx fact issue
    else begin
      let lat = base_lat.(idx) in
      let lat =
        if cl = c_load then access ~write:false fact issue lat
        else if cl = c_store then access ~write:true fact issue lat
        else lat
      in
      (* conditional mispredicts stall the front end *)
      if cl = c_branch
         && not (Predictor.access pred (base + (4 * idx)) ~taken:(fact <> 0))
      then k.fetch_stall <- issue +. params.mispredict_penalty;
      let d = dst.(idx) in
      if d <> 0 then ready.(d) <- issue +. lat
    end
  in
  let pc_of idx = Int32.add prog.Asm.base (Int32.of_int (4 * idx)) in
  let last = ref (-1) in
  let on_retire =
    match sink with
    | None -> time
    | Some s ->
      fun idx fact ->
        let before = k.clock in
        time idx fact;
        last := idx;
        s.Machine.on_cpu_retire ~pc:(pc_of idx) code.(idx)
          ~cost:(k.clock -. before)
  in
  (* the CPU mode prices nothing, so any config decodes the same run *)
  let r =
    Machine.run ~fuel ~cpu:{ Machine.on_retire; on_extern }
      (Machine.decode Zkopt_zkvm.Config.risc0 cg m)
  in
  let cycles = fmax k.clock k.mem_busy_until in
  (match sink with
  | Some s when !last >= 0 && cycles > k.clock ->
    s.Machine.on_cpu_retire ~pc:(pc_of !last) code.(!last)
      ~cost:(cycles -. k.clock)
  | _ -> ());
  {
    cycles;
    time_s = cycles /. (params.ghz *. 1e9);
    retired = r.Machine.retired;
    cache_hits = cache.Cache.hits;
    cache_misses = cache.Cache.misses;
    mispredicts = pred.Predictor.mispredicts;
    exit_value = r.Machine.exit_value;
  }
