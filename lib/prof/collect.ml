(** Attribution collector: implements the executor's and CPU model's
    attribution sinks, resolving each charged pc to a provenance site
    through the binary's source map and maintaining a shadow call stack
    for folded-flamegraph output.

    The shadow stack mirrors the RISC-V calling convention the code
    generator emits: a call is always [jal ra, off] (static target) or
    [jalr ra, ...] (indirect — none are emitted today, but the collector
    tolerates them), and a return is [jalr x0, 0(ra)].  The call
    instruction itself is charged to the caller's frame; the push/pop
    happens after charging. *)

open Zkopt_riscv

type t = {
  site_of_pc : int32 -> (string * string) option;
      (* the backend's provenance map: pc -> (function, IR block) *)
  profile : Profile.t;
  mutable stack : string list;  (* call frames, innermost first *)
}

let create ~site_of_pc profile = { site_of_pc; profile; stack = [] }

let site_at c pc =
  match c.site_of_pc pc with
  | Some (f, b) -> Site.make f b
  | None -> Site.unknown

let fold_key c (s : Site.t) =
  String.concat ";" (List.rev_append c.stack [ Site.to_string s ])

let charge_instr c ~pc (ins : Isa.t) ~cost =
  let s = site_at c pc in
  let k = Profile.counters c.profile s in
  k.Profile.exec <- k.Profile.exec + cost;
  k.Profile.retired <- k.Profile.retired + 1;
  (match ins with
  | Isa.Load _ | Isa.Store _ -> k.Profile.mem_ops <- k.Profile.mem_ops + 1
  | _ -> ());
  Profile.fold_add c.profile (fold_key c s) cost;
  match ins with
  | Isa.Jal (rd, off) when rd = Isa.ra ->
    let callee = site_at c (Int32.add pc (Int32.of_int off)) in
    c.stack <- callee.Site.func :: c.stack
  | Isa.Jalr (rd, _, _) when rd = Isa.ra -> c.stack <- "<indirect>" :: c.stack
  | Isa.Jalr (0, rs1, _) when rs1 = Isa.ra -> (
    match c.stack with _ :: tl -> c.stack <- tl | [] -> ())
  | _ -> ()

(** The zkVM-side sink.  [segment_pad] turns a segment close event (its
    trace-row/cycle count) into the backend's prover padding residue,
    mirroring that backend's prover — for the RV32 single-table model,
    pow2 padding above the min_po2 floor
    ({!Zkopt_backend.Backend.t.segment_pad}).

    Retires may arrive batched ({!Zkopt_zkvm.Machine.retire_batch});
    they are folded immediately, in retirement order, because
    {!charge_instr}'s shadow call stack is order-sensitive. *)
let zk_sink c ~(segment_pad : int -> int) : Zkopt_zkvm.Machine.sink =
  Zkopt_zkvm.Machine.sink
    ~on_retires:
      (Zkopt_zkvm.Machine.iter_retires (fun ~pc ins ~cost ->
           charge_instr c ~pc ins ~cost))
    ~on_precompile:(fun ~pc ~name:_ ~cost ->
      (* the ecall itself was already charged as a retire; the
         precompile's cycle bill rides on the same site *)
      let s = site_at c pc in
      let k = Profile.counters c.profile s in
      k.Profile.exec <- k.Profile.exec + cost;
      Profile.fold_add c.profile (fold_key c s) cost)
    ~on_page_in:(fun ~pc ~cost ->
      let k = Profile.counters c.profile (site_at c pc) in
      k.Profile.paging_in <- k.Profile.paging_in + cost)
    ~on_page_out:(fun ~pc ~cost ->
      let k = Profile.counters c.profile (site_at c pc) in
      k.Profile.paging_out <- k.Profile.paging_out + cost)
    ~on_segment:(fun ~pc ~user ~paging ->
      let k = Profile.counters c.profile (site_at c pc) in
      k.Profile.segment <- k.Profile.segment + segment_pad (user + paging))
    ()

(** The CPU-model sink (float cycles, no paging/segment dimensions). *)
let cpu_sink c : Zkopt_zkvm.Machine.sink =
  Zkopt_zkvm.Machine.sink
    ~on_cpu_retire:(fun ~pc (_ins : Isa.t) ~cost ->
      let k = Profile.counters c.profile (site_at c pc) in
      k.Profile.cpu <- k.Profile.cpu +. cost)
    ()
