(** The benchmark-program registry: 58 programs mirroring the paper's
    suite (Appendix B) — PolyBench x30, NPB x8, SPEC x3, a16z x3,
    Succinct x4, RSP x1, and 9 others.

    Each program builds a fresh IR module whose [main] returns an i32
    checksum; sizes are reduced to keep simulated proving tractable,
    exactly as the paper reduces its inputs.  [Quick] sizes are for the
    test suite; [Full] sizes for the bench harness. *)

open Zkopt_ir

type size = Quick | Full

type t = {
  name : string;
  suite : string;       (* "polybench" | "npb" | "spec" | "a16z" | "succinct"
                           | "rsp" | "misc" *)
  uses_precompiles : bool;
  build : size -> Modul.t;
}

let registry : (string, t) Hashtbl.t = Hashtbl.create 64

let register ?(uses_precompiles = false) ~suite name build =
  if Hashtbl.mem registry name then
    invalid_arg ("Workload.register: duplicate " ^ name);
  Hashtbl.replace registry name { name; suite; uses_precompiles; build }

let find name =
  match Hashtbl.find_opt registry name with
  | Some w -> w
  | None -> invalid_arg ("Workload.find: unknown program " ^ name)

let all () =
  Hashtbl.fold (fun _ w acc -> w :: acc) registry []
  |> List.sort (fun a b -> compare (a.suite, a.name) (b.suite, b.name))

let by_suite suite = List.filter (fun w -> String.equal w.suite suite) (all ())
