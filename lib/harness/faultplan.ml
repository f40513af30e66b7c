(** Generalized fault injection for the sweep, in the style of
    systematic zkVM soundness testing (Arguzz): a plan maps specific
    (program, profile, vm) sites to executor faults
    ({!Zkopt_zkvm.Machine.fault}), and a deterministic seeded selector
    can scatter faults across a matrix.  The harness knows nothing about
    which cells are faulted — its differential oracle and each backend's
    accounting oracle must *catch* the injected faults, which is what
    the tests assert. *)

module Machine = Zkopt_zkvm.Machine

type site = { program : string; profile : string; vm : string }

type t = { sites : (site * Machine.fault) list }

let none = { sites = [] }

let inject sites = { sites }

let sites t = t.sites

(** A fault's name in corpus entries and fuzz [fault:] lines. *)
let kind_name : Machine.fault -> string = function
  | Silent_halt_on_boundary_jalr -> "silent-halt-on-boundary-jalr"
  | Dropped_page_out -> "dropped-page-out"
  | Truncated_final_segment -> "truncated-final-segment"
  | Corrupt_exit_value -> "corrupt-exit-value"

let all_kinds =
  Machine.
    [ Silent_halt_on_boundary_jalr; Dropped_page_out; Truncated_final_segment;
      Corrupt_exit_value ]

(** Inverse of {!kind_name}; the fuzz corpus codec round-trips injected
    faults through their names. *)
let kind_of_name name =
  List.find_opt (fun k -> String.equal (kind_name k) name) all_kinds

(** The fault (if any) this plan injects at one measurement site. *)
let executor_fault t ~program ~profile ~vm : Machine.fault option =
  List.find_map
    (fun (s, k) ->
      if
        String.equal s.program program
        && String.equal s.profile profile
        && String.equal s.vm vm
      then Some k
      else None)
    t.sites

(** Deterministic seeded site selector: pick [count] distinct sites from
    the given axes.  The same seed always selects the same sites (no
    global [Random] state), so fuzz campaigns are reproducible. *)
let random ~seed ~count ~programs ~profiles ~vms ~kinds : t =
  if programs = [] || profiles = [] || vms = [] || kinds = [] then none
  else begin
    let state = ref (((seed * 2654435761) land 0x3FFFFFFF) lor 1) in
    let next n =
      (* LCG low bits have tiny periods; draw from the high bits *)
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      (!state lsr 16) mod n
    in
    let pick l = List.nth l (next (List.length l)) in
    let sites = ref [] in
    let attempts = ref 0 in
    while List.length !sites < count && !attempts < count * 100 do
      incr attempts;
      let s = { program = pick programs; profile = pick profiles; vm = pick vms } in
      if not (List.mem_assoc s !sites) then sites := (s, pick kinds) :: !sites
    done;
    { sites = List.rev !sites }
  end
