(** The benchmark's workloads and the inputs each draws from its seed.

    The library code under test only ever sees what [make] returns: a
    program list, a profile list and backend names.

    Program sets are fixed per workload, and the seed orders the
    programs and profiles.  A seeded subset of the suite would make
    cells/s depend mostly on which programs were drawn: one program's
    71-profile row costs from 0.08 s to 16 s, and draws of 4 to 12
    programs spread cells/s by 20 to 90% across seeds. *)

open Zkopt_core

type workload = Matrix | Levels

let workloads = [ ("matrix", Matrix); ("levels", Levels) ]

let name w = fst (List.find (fun (_, w') -> w' = w) workloads)

let of_name s = List.assoc_opt s workloads

type t = {
  workload : workload;
  seed : int;
  programs : string list;
  profiles : Profile.t list;
  backends : string list;
}

(** [matrix]: one typical program from each of five suites plus a tiny
    one; heavy rows (npb-cg alone costs a third of the full matrix) are
    left out so that one run holds several repeats. *)
let matrix_programs =
  [ "polybench-gemm"; "npb-is"; "sha256"; "spec-605"; "ecdsa-verify"; "fibonacci" ]

(** [levels] runs every fourth program of the suite (15 of 58, in the
    suite's (suite, name) order), so that one run holds several repeats. *)
let levels_programs () =
  List.filteri
    (fun i _ -> i mod 4 = 0)
    (List.map
       (fun (w : Zkopt_workloads.Workload.t) -> w.Zkopt_workloads.Workload.name)
       (Zkopt_workloads.Suite.all ()))

let levels_profiles =
  (Profile.Baseline
  :: List.map (fun l -> Profile.Level l) Zkopt_passes.Catalog.all_levels)
  @ [ Profile.Zkvm_o3 ]

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let make (workload : workload) ~(seed : int) : t =
  let rng = Random.State.make [| seed; Hashtbl.hash (name workload) |] in
  let programs, profiles, backends =
    match workload with
    | Matrix -> (matrix_programs, Profile.all_71, [ "risc0"; "sp1" ])
    | Levels -> (levels_programs (), levels_profiles, [ "risc0"; "sp1"; "valida" ])
  in
  let programs = shuffle rng programs in
  let profiles = shuffle rng profiles in
  { workload; seed; programs; profiles; backends }
