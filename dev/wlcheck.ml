(* Workload check: every suite program's IR-interpreter checksum must
   equal its exit value on the live machine, through the path the rows
   come from ([Measure.prepare] at baseline, then [Measure.run_zkvm] on
   risc0).  [dune exec dev/wlcheck.exe] runs Quick inputs; pass [full]
   for Full ones. *)

open Zkopt_ir
module Seedfmt = Zkopt_devutil.Seedfmt
module Measure = Zkopt_core.Measure
module Workload = Zkopt_workloads.Workload

let tool = "wlcheck"

let () =
  let size =
    if Array.length Sys.argv > 1 && Sys.argv.(1) = "full" then Workload.Full
    else Workload.Quick
  in
  List.iter (fun (w : Workload.t) ->
    let t0 = Unix.gettimeofday () in
    try
      let c =
        Measure.prepare ~build:(fun () -> w.build size) Zkopt_core.Profile.Baseline
      in
      let iv = Interp.checksum c.Measure.modul in
      let r = Measure.run_zkvm Zkopt_zkvm.Config.risc0 c in
      let ev = r.Measure.exit_value in
      let ok = Int64.equal iv ev in
      if not ok then
        Seedfmt.fail ~tool "workload %s MISMATCH interp=%Lx machine=%Lx" w.name
          iv ev;
      Printf.printf "%-28s %-10s interp=%Lx machine=%Lx cycles=%-10d %.2fs %s\n%!"
        w.name w.suite iv ev r.Measure.cycles (Unix.gettimeofday () -. t0)
        (if ok then "ok" else "MISMATCH")
    with e ->
      Seedfmt.fail ~tool "workload %s EXN %s" w.name (Printexc.to_string e))
    (Zkopt_workloads.Suite.all ());
  Seedfmt.finish tool
