(* Backend conformance gate (dune build @smoke):

   every registered backend must produce the same canonical exit value
   as every other on the whole workload suite — the backends are allowed
   to disagree about cost, never about the answer.  Each program is
   checked under the unoptimized baseline and under -O3, so both the
   straight and the heavily transformed codegen paths are exercised.
   Exit values are compared as the canonical int64 encoding
   (Measure.exit64), which every backend produces at its boundary. *)

open Zkopt_core
module Backend = Zkopt_backend.Backend
module Registry = Zkopt_backend.Registry
module Seedfmt = Zkopt_devutil.Seedfmt

let tool = "backendcheck"

let () = Zkopt_valida.Vbackend.ensure ()

let () =
  Zkopt_workloads.Suite.check_composition ();
  let backends = Registry.all () in
  if List.length backends < 3 then
    Seedfmt.fail ~tool "expected >=3 registered backends, found %d"
      (List.length backends);
  let profiles =
    [ Profile.Baseline; Profile.Level Zkopt_passes.Catalog.O3 ]
  in
  let checked = ref 0 in
  List.iter
    (fun (w : Zkopt_workloads.Workload.t) ->
      let build () =
        w.Zkopt_workloads.Workload.build Zkopt_workloads.Workload.Quick
      in
      List.iter
        (fun profile ->
          match Measure.prepare_ir ~build profile with
          | exception e ->
            Seedfmt.fail ~tool "%s/%s: prepare failed: %s"
              w.Zkopt_workloads.Workload.name (Profile.name profile)
              (Printexc.to_string e)
          | m ->
            let arts : (string, Backend.compiled) Hashtbl.t =
              Hashtbl.create 4
            in
            let exits =
              List.map
                (fun (b : Backend.t) ->
                  let c =
                    match Hashtbl.find_opt arts b.Backend.schema with
                    | Some c -> c
                    | None ->
                      let c = b.Backend.compile m in
                      Hashtbl.add arts b.Backend.schema c;
                      c
                  in
                  let r = c.Backend.measure ~vm:b.Backend.name () in
                  (b.Backend.name, r.Backend.zk.Measure.exit_value))
                backends
            in
            incr checked;
            (match exits with
            | (ref_name, ref_exit) :: rest ->
              List.iter
                (fun (name, exit_) ->
                  if not (Int64.equal exit_ ref_exit) then
                    Seedfmt.fail ~tool
                      "%s/%s: %s exit 0x%Lx disagrees with %s exit 0x%Lx"
                      w.Zkopt_workloads.Workload.name (Profile.name profile)
                      name exit_ ref_name ref_exit)
                rest
            | [] -> ()))
        profiles)
    (Zkopt_workloads.Workload.all ());
  Printf.printf
    "backendcheck: %d program/profile cells agree across %d backends (%s)\n"
    !checked (List.length backends)
    (String.concat ", " (Registry.names ()));
  Seedfmt.finish tool
