(** One cell of the sweep matrix: a (program, profile) pair measured on
    every backend in the sweep's backend list (plus the CPU model where
    the study needs it), together with the exception barrier that keeps
    one bad cell from poisoning the rest of the campaign. *)

open Zkopt_core

type point = {
  program : string;
  suite : string;
  profile : string;
  zk : Measure.zk_metrics list;
      (** one entry per backend, in the sweep's backend order; the head
          backend is the differential-oracle reference *)
  cpu : Measure.cpu_metrics option;
}

(** The cell's metrics on backend [vm], if it was measured. *)
let zk_opt (p : point) (vm : string) : Measure.zk_metrics option =
  List.find_opt (fun (z : Measure.zk_metrics) -> String.equal z.Measure.vm vm) p.zk

let zk (p : point) (vm : string) : Measure.zk_metrics =
  match zk_opt p vm with
  | Some z -> z
  | None ->
    invalid_arg
      (Printf.sprintf "cell (%s, %s) has no %S metrics (measured: %s)"
         p.program p.profile vm
         (String.concat ", "
            (List.map (fun (z : Measure.zk_metrics) -> z.Measure.vm) p.zk)))

(** Exception barrier: run [f] and classify any escaping exception into
    an {!Error.t} carrying the cell's coordinates.  The [vm] coordinate
    is refined when the exception was raised inside a per-VM measurement
    (wrapped in {!Error.In_vm}). *)
let protect ~(coord : Error.coord) (f : unit -> 'a) : ('a, Error.t) result =
  try Ok (f ()) with
  | e ->
    let coord =
      match Error.vm_of_exn e with
      | Some vm -> { coord with Error.vm }
      | None -> coord
    in
    Error { Error.coord; kind = Error.classify e }
