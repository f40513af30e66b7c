(** Profile-diff versions of the paper's case studies: instead of
    reporting only that licm/inlining/simplifycfg moved the totals
    (Fig. 9 / Fig. 10 / Fig. 12), attribute every cycle to its IR site
    and show *where* the regression lives.

    - Fig. 9: licm's cycle growth is dominated by paging charged at the
      loop that now holds the hoisted (and spilled) address values.
    - Fig. 10: the inline delta is memory traffic at the loop body.  In
      this model the sign flips relative to the paper (our regalloc
      spills every value live across a call, so the *baseline* carries
      the per-call lw/sw and inlining deletes it), but the attribution
      shows the same mechanism: the moved cycles are spill loads/stores
      at the work loop, not call overhead.
    - Fig. 12: simplifycfg's select wins CPU cycles at the abs() site
      while losing zkVM exec cycles at the very same site. *)

open Zkopt_core
open Zkopt_report
module P = Zkopt_prof.Profile
module Diff = Zkopt_prof.Diff
module Render = Zkopt_prof.Render
module Backend = Zkopt_backend.Backend

(* Every case profiles on risc0, zkVM and CPU dimensions in one profile. *)
let profile_pair ~build ~base_profile ~opt_profile =
  let b = Zkopt_backend.Registry.find "risc0" in
  let profile p =
    let c = b.Backend.compile (Measure.prepare_ir ~build p) in
    snd (Zkopt_prof.Driver.profile_backend ~label:(Profile.name p) b c)
  in
  (profile base_profile, profile opt_profile)

let top_entry dim ~base ~cand =
  match Diff.by_dim dim ~base ~cand with
  | e :: _ when e.Diff.delta <> 0.0 -> Some e
  | _ -> None

let note_top dim ~base ~cand =
  match top_entry dim ~base ~cand with
  | Some e ->
    Report.note "top %s delta: %-24s %+.0f cycles" (P.dim_name dim)
      (Zkopt_prof.Site.to_string e.Diff.site)
      e.Diff.delta
  | None -> Report.note "top %s delta: (none moved)" (P.dim_name dim)

let licm () =
  Report.section "exp_prof — Fig. 9 mechanism: where licm's cycles went";
  Report.paper
    "licm hoists %d address computations past the register file; the \
     regression should be paging/spill traffic at the hoisted header, \
     not the loop bodies" 24;
  let build = Exp_cases.licm_program ~depth:1 ~arrays:24 ~n:300 in
  let base, cand =
    profile_pair ~build ~base_profile:Profile.Baseline
      ~opt_profile:
        (Profile.Custom ([ "licm" ], Zkopt_passes.Pass.standard_config))
  in
  Render.diff ~top:5 ~base ~cand ();
  note_top P.Exec ~base ~cand;
  note_top P.Paging_in ~base ~cand;
  note_top P.Paging_out ~base ~cand;
  let paging_delta =
    Diff.total_delta P.Paging_in ~base ~cand
    +. Diff.total_delta P.Paging_out ~base ~cand
  in
  Report.note "paging delta %+.0f cycles (paper: licm inflates paging)"
    paging_delta

(* per-site mem_ops is not a Diff dimension (it is a count, not cycles),
   so rank it by hand *)
let top_mem_site ~(base : P.t) ~(cand : P.t) =
  let tbl = Hashtbl.create 32 in
  let add sign (p : P.t) =
    Hashtbl.iter
      (fun s (c : P.counters) ->
        let cur =
          match Hashtbl.find_opt tbl s with Some v -> v | None -> 0
        in
        Hashtbl.replace tbl s (cur + (sign * c.P.mem_ops)))
      p.P.sites
  in
  add (-1) base;
  add 1 cand;
  Hashtbl.fold
    (fun s d best ->
      match best with
      | Some (_, bd) when abs bd >= abs d -> best
      | _ -> Some (s, d))
    tbl None

let inline_spills () =
  Report.section "exp_prof — Fig. 10 mechanism: inlining and spill traffic";
  Report.paper
    "the paper's inline regression is spill lw/sw in the u64 work() \
     loop; our regalloc stacks live-across-call values instead, so the \
     same traffic sits on the baseline side — the diff localizes it to \
     the work loop either way";
  let w = Zkopt_workloads.Workload.find "tailcall" in
  let build () =
    w.Zkopt_workloads.Workload.build Zkopt_workloads.Workload.Full
  in
  let cfg_inl =
    { Zkopt_passes.Pass.standard_config with inline_threshold = 5000 }
  in
  let base, cand =
    profile_pair ~build ~base_profile:Profile.Baseline
      ~opt_profile:(Profile.Custom ([ "inline" ], cfg_inl))
  in
  Render.diff ~top:5 ~base ~cand ();
  note_top P.Exec ~base ~cand;
  (match top_mem_site ~base ~cand with
  | Some (s, d) ->
    Report.note "top memory-op delta: %-24s %+d lw/sw"
      (Zkopt_prof.Site.to_string s) d
  | None -> ());
  let mem_base =
    Hashtbl.fold (fun _ c a -> a + c.P.mem_ops) base.P.sites 0
  in
  let mem_cand =
    Hashtbl.fold (fun _ c a -> a + c.P.mem_ops) cand.P.sites 0
  in
  Report.note "attributed memory ops: baseline %d, inlined %d (x%.2f)"
    mem_base mem_cand
    (float_of_int mem_cand /. float_of_int (max 1 mem_base))

let simplifycfg () =
  Report.section "exp_prof — Fig. 12 mechanism: one site, two verdicts";
  Report.paper
    "simplifycfg's select removes mispredicts (CPU wins) but executes \
     both arms every iteration (zkVM loses) — the profile diff shows \
     both effects at the same abs() site";
  let build = Exp_cases.abs_program 40_000 in
  let base, cand =
    profile_pair ~build ~base_profile:Profile.Baseline
      ~opt_profile:(Profile.Single_pass "simplifycfg")
  in
  Render.diff ~top:5 ~base ~cand ();
  note_top P.Exec ~base ~cand;
  note_top P.Cpu ~base ~cand;
  Report.note "zk exec delta %+.0f vs CPU delta %+.0f cycles"
    (Diff.total_delta P.Exec ~base ~cand)
    (Diff.total_delta P.Cpu ~base ~cand)

let run () =
  licm ();
  inline_spills ();
  simplifycfg ()
