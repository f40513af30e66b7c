(** Settlement experiment: the execution metric and the settled cost
    disagree on whether an optimization paid off.

    The kernel below has a tiny data working set but a hot inner loop
    whose body dominates execution.  Fully unrolling the inner loop
    removes its control overhead, so *user* cycles drop — but the
    unrolled body is ~16x the code, and on risc0's paging model (1 KB
    pages at 1130 cycles per page event, re-paged every segment) the
    extra code pages cost more than the overhead saved: total cycles —
    the sweep's cells metric — regress.

    Segments, however, close on user cycles alone (2^20 on risc0).
    Sized so the baseline lands just past one segment limit, the unroll
    pulls user cycles back under it: two segments become one, which
    deletes a ~0.9 s per-segment prover overhead *and* the entire
    aggregation level that folded the two segment proofs.  The settled
    cost (prover + aggregation + verification gas) drops by a third
    while the cells verdict calls the same transform a regression.

    The trip-count window where the boundary crossing happens is found
    by calibration (two probe runs per profile fit a linear cycle
    model), not baked in, so the experiment survives codegen changes. *)

open Zkopt_ir
open Zkopt_core
open Zkopt_report
module B = Builder
module Backend = Zkopt_backend.Backend
module Registry = Zkopt_backend.Registry
module S = Zkopt_settle.Settle

let () = Zkopt_valida.Vbackend.ensure ()

(* ------------------------------------------------------------------ *)
(* The boundary kernel                                                 *)
(* ------------------------------------------------------------------ *)

(* [n] outer iterations of a [trip]-iteration inner loop whose body is
   [body] dependent xor/add pairs on one accumulator.  No arrays: the
   data working set stays a handful of pages, so code paging dominates
   the paging bill and segment re-paging is cheap. *)
let trip = 64
let body = 30

let kernel ~n () =
  let m = Modul.create () in
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         let s = B.var b Ty.I32 (B.imm 1) in
         B.for_ b ~from:(B.imm 0) ~bound:(B.imm n) (fun i ->
             B.for_ b ~from:(B.imm 0) ~bound:(B.imm trip) (fun j ->
                 let t = B.add b i j in
                 for k = 0 to body - 1 do
                   let v =
                     B.xor b (Value.Reg s)
                       (B.imm ((k * 2654435761) lor 0x1234567))
                   in
                   B.set b Ty.I32 s (B.add b v t)
                 done));
         B.ret b (Some (Value.Reg s))));
  m

(* full unroll of the inner loop only: trip * body_size must clear the
   threshold while the outer loop (huge body once unrolled) must not *)
let unroll_profile =
  Profile.Custom
    ( [ "loop-unroll"; "sccp"; "dce"; "simplifycfg" ],
      { Zkopt_passes.Pass.standard_config with unroll_threshold = 16_384 } )

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

let measure (b : Backend.t) ~n profile =
  let m = Measure.prepare_ir ~build:(kernel ~n) profile in
  (b.Backend.compile m).Backend.measure ~vm:b.Backend.name ()

let user_cycles (r : Backend.measurement) =
  r.Backend.zk.Measure.cycles - r.Backend.zk.Measure.paging_cycles

(* Fit user(n) ~ a + u*n from two probes and return the first n whose
   predicted user-cycle count crosses [limit]. *)
let crossing (b : Backend.t) profile ~limit =
  let n1 = 64 and n2 = 96 in
  let u1 = user_cycles (measure b ~n:n1 profile) in
  let u2 = user_cycles (measure b ~n:n2 profile) in
  let per = float_of_int (u2 - u1) /. float_of_int (n2 - n1) in
  let a = float_of_int u1 -. (per *. float_of_int n1) in
  (int_of_float (ceil ((float_of_int limit -. a) /. per)), per)

(* ------------------------------------------------------------------ *)
(* The study                                                           *)
(* ------------------------------------------------------------------ *)

let pct base v =
  (float_of_int v /. float_of_int base -. 1.0) *. 100.0

let run () =
  Report.section
    "Settlement — cells and settled cost disagree at a segment boundary";
  Report.paper
    "segments close on user cycles alone, so a code-growing unroll can \
     regress total cycles (paging) while deleting a segment: one fewer \
     0.9 s prover overhead and no aggregation level; the settled \
     objective flips the verdict";
  let b = Registry.find "risc0" in
  let limit = 1 lsl 20 in
  let n_base, per_base = crossing b Profile.Baseline ~limit in
  let n_unroll, per_unroll = crossing b unroll_profile ~limit in
  Report.note
    "calibration: baseline %.0f user cycles/outer-iter (crosses 2^20 at \
     n=%d); unrolled %.0f (crosses at n=%d); window width %d"
    per_base n_base per_unroll n_unroll (n_unroll - n_base);
  let inversions = ref 0 in
  let rows =
    List.map
      (fun n ->
        let rb = measure b ~n Profile.Baseline in
        let ru = measure b ~n unroll_profile in
        if
          not
            (Int64.equal rb.Backend.zk.Measure.exit_value
               ru.Backend.zk.Measure.exit_value)
        then failwith "exit divergence between baseline and unrolled";
        let sb = S.price ~backend:b.Backend.name rb in
        let su = S.price ~backend:b.Backend.name ru in
        let dcells = pct rb.Backend.zk.Measure.cycles ru.Backend.zk.Measure.cycles in
        let dsettled = pct sb.S.settled_cost su.S.settled_cost in
        let inverted =
          (dcells > 0.0 && dsettled < 0.0) || (dcells < 0.0 && dsettled > 0.0)
        in
        if inverted then incr inversions;
        [ string_of_int n;
          Printf.sprintf "%d+%d" (user_cycles rb)
            rb.Backend.zk.Measure.paging_cycles;
          Printf.sprintf "%d+%d" (user_cycles ru)
            ru.Backend.zk.Measure.paging_cycles;
          Printf.sprintf "%d->%d" sb.S.segments su.S.segments;
          Printf.sprintf "%+.2f%%" dcells;
          string_of_int sb.S.settled_cost;
          string_of_int su.S.settled_cost;
          Printf.sprintf "%+.1f%%" dsettled;
          (if inverted then "INVERTED" else "agree") ])
      (List.init 6 (fun i -> n_base - 1 + i))
  in
  Report.table
    ~headers:
      [ "n"; "base user+paging"; "unroll user+paging"; "segs";
        "cells delta"; "settled base"; "settled unroll"; "settled delta";
        "verdict" ]
    rows;
  Report.note
    "%d of 6 trip counts invert the verdict (cells regression, settled \
     win) on %s"
    !inversions b.Backend.name;
  if !inversions = 0 then
    Report.note
      "  (no inversion in this window: calibration drifted; widen the scan)"
