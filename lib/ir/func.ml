(** An IR function.

    Blocks are kept in a mutable ordered list; the first block is the
    entry.  [next_reg] is the virtual register allocator; always mint new
    registers through {!fresh_reg} so ids stay unique. *)

type attrs = {
  mutable always_inline : bool;
  mutable no_inline : bool;
  mutable internal : bool;
      (** not address-taken / externally visible; safe for globaldce,
          dead-arg elimination and signature rewrites *)
}

type t = {
  name : string;
  params : (Value.reg * Ty.t) list;
  ret : Ty.t option;
  mutable blocks : Block.t list;
  mutable next_reg : int;
  mutable next_label : int;
  attrs : attrs;
}

let default_attrs () = { always_inline = false; no_inline = false; internal = true }

let create ~name ~params ~ret =
  let next_reg =
    List.fold_left (fun acc (r, _) -> max acc (r + 1)) 0 params
  in
  { name; params; ret; blocks = []; next_reg; next_label = 0; attrs = default_attrs () }

let fresh_reg f =
  let r = f.next_reg in
  f.next_reg <- r + 1;
  r

let entry f =
  match f.blocks with
  | b :: _ -> b
  | [] -> invalid_arg (Printf.sprintf "Func.entry: %s has no blocks" f.name)

let find_block f label =
  List.find_opt (fun (b : Block.t) -> String.equal b.label label) f.blocks

let find_block_exn f label =
  match find_block f label with
  | Some b -> b
  | None ->
    invalid_arg (Printf.sprintf "Func.find_block: no block %S in %s" label f.name)

let add_block f b = f.blocks <- f.blocks @ [ b ]

let remove_block f label =
  f.blocks <- List.filter (fun (b : Block.t) -> not (String.equal b.label label)) f.blocks

let iter_blocks f fn = List.iter fn f.blocks

let iter_instrs f fn =
  List.iter (fun (b : Block.t) -> List.iter (fn b) b.instrs) f.blocks

let instr_count f =
  List.fold_left (fun acc b -> acc + Block.instr_count b) 0 f.blocks

(* Fresh label unique within the function; [hint] keeps names readable.
   The counter lives in the function record — not in shared module state —
   so generated names depend only on the function's own transformation
   history.  That keeps printed IR (and hence compile-cache digests)
   deterministic when sweep cells run on parallel worker domains. *)
let fresh_label f hint =
  let rec try_next () =
    f.next_label <- f.next_label + 1;
    let label = Printf.sprintf "%s.%d" hint f.next_label in
    if find_block f label = None then label else try_next ()
  in
  try_next ()

(** The type of each register, reconstructed from definitions and params.
    The verifier guarantees consistency. *)
let reg_types f =
  let types = Hashtbl.create 64 in
  let set r ty = Hashtbl.replace types r ty in
  List.iter (fun (r, ty) -> set r ty) f.params;
  iter_instrs f (fun _ i ->
      match i with
      | Instr.Bin { dst; ty; _ } | Select { dst; ty; _ } | Mov { dst; ty; _ }
      | Load { dst; ty; _ } ->
        set dst ty
      | Cmp { dst; _ } -> set dst Ty.I32
      | Cast { dst; op; _ } ->
        set dst (match op with Instr.Trunc -> Ty.I32 | Zext | Sext -> Ty.I64)
      | Addr { dst; _ } | Alloca { dst; _ } -> set dst Ty.Ptr
      | Call { dst; _ } | Precompile { dst; _ } ->
        (* Calls return I32 or I64 depending on the callee; resolved by the
           caller of this function via the module when needed.  Default to
           I32 here and let [Modul.reg_types] refine. *)
        Option.iter (fun d -> if not (Hashtbl.mem types d) then set d Ty.I32) dst
      | Store _ -> ());
  types
