(** The profile model: per-site counters across every cost dimension the
    zkVM cost model distinguishes, plus folded call stacks for
    flamegraph output.

    Conservation identities (asserted by test/test_prof.ml):
    - sum of per-site [exec] = the executor's [user_cycles]
    - sum of [paging_in] = page_ins * page_in_cost, and likewise for
      [paging_out] — together they equal [paging_cycles]
    - sum of [segment] = the prover's pow2 padding residue over all
      segments
    - sum of [cpu] = the CPU model's reported float cycle count *)

type counters = {
  mutable exec : int;        (* zk user cycles: instructions + precompiles *)
  mutable paging_in : int;   (* page-in cycles charged to first-touch pcs *)
  mutable paging_out : int;  (* page-out cycles charged to first-dirty pcs *)
  mutable segment : int;     (* prover pow2 padding residue, in cycles *)
  mutable cpu : float;       (* CPU-model cycles (RQ3 contrast point) *)
  mutable retired : int;
  mutable mem_ops : int;
}

let fresh () =
  {
    exec = 0;
    paging_in = 0;
    paging_out = 0;
    segment = 0;
    cpu = 0.0;
    retired = 0;
    mem_ops = 0;
  }

type t = {
  vm : string;     (* cost-model name: "risc0", "sp1", "cpu" *)
  label : string;  (* what was profiled, e.g. "licm" or "O2" *)
  sites : (Site.t, counters) Hashtbl.t;
  folded : (string, int) Hashtbl.t;
      (* "frame;frame;func:block" -> exec cycles, flamegraph.pl format *)
}

let create ~vm ~label =
  { vm; label; sites = Hashtbl.create 64; folded = Hashtbl.create 64 }

let counters t site =
  match Hashtbl.find_opt t.sites site with
  | Some c -> c
  | None ->
    let c = fresh () in
    Hashtbl.replace t.sites site c;
    c

let fold_add t key cost =
  let cur = match Hashtbl.find_opt t.folded key with Some n -> n | None -> 0 in
  Hashtbl.replace t.folded key (cur + cost)

(* -- dimensions ------------------------------------------------------- *)

type dim = Exec | Paging_in | Paging_out | Segment | Cpu

let dims = [ Exec; Paging_in; Paging_out; Segment; Cpu ]

let dim_name = function
  | Exec -> "exec"
  | Paging_in -> "page-in"
  | Paging_out -> "page-out"
  | Segment -> "padding"
  | Cpu -> "cpu"

let get dim (c : counters) =
  match dim with
  | Exec -> float_of_int c.exec
  | Paging_in -> float_of_int c.paging_in
  | Paging_out -> float_of_int c.paging_out
  | Segment -> float_of_int c.segment
  | Cpu -> c.cpu

(** Per-site zk cycles: what the prover ultimately pays for this site,
    excluding the shared padding residue. *)
let zk (c : counters) = c.exec + c.paging_in + c.paging_out

let total t dim =
  Hashtbl.fold (fun _ c acc -> acc +. get dim c) t.sites 0.0

(** All sites with their counters, hottest (by {!zk}) first. *)
let sites t =
  let l = Hashtbl.fold (fun s c acc -> (s, c) :: acc) t.sites [] in
  List.sort
    (fun (s1, c1) (s2, c2) ->
      match compare (zk c2) (zk c1) with
      | 0 -> Site.compare s1 s2
      | n -> n)
    l

let folded_lines t =
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.folded [] in
  List.sort (fun (a, _) (b, _) -> String.compare a b) l

(* -- persistence ------------------------------------------------------ *)

(* Tab-separated text, one record per line:
     zkprof <version>
     vm <name>
     label <label>
     site <func> <block> <exec> <pin> <pout> <seg> <cpu> <retired> <memops>
     fold <stack> <cycles>
   Field values never contain tabs (function/block names come from the
   IR, which forbids them). *)

let save t path =
  let oc = open_out path in
  let pr fmt = Printf.fprintf oc fmt in
  pr "zkprof\t1\n";
  pr "vm\t%s\n" t.vm;
  pr "label\t%s\n" t.label;
  List.iter
    (fun ((s : Site.t), c) ->
      pr "site\t%s\t%s\t%d\t%d\t%d\t%d\t%.3f\t%d\t%d\n" s.Site.func
        s.Site.block c.exec c.paging_in c.paging_out c.segment c.cpu
        c.retired c.mem_ops)
    (sites t);
  List.iter (fun (k, v) -> pr "fold\t%s\t%d\n" k v) (folded_lines t);
  close_out oc

let load path =
  let ic = open_in path in
  let vm = ref "" and label = ref "" in
  let sites = Hashtbl.create 64 in
  let folded = Hashtbl.create 64 in
  let bad line = failwith (Printf.sprintf "%s: bad profile line %S" path line) in
  (try
     while true do
       let line = input_line ic in
       if not (String.equal line "") then
         match String.split_on_char '\t' line with
         | [ "zkprof"; "1" ] -> ()
         | [ "zkprof"; v ] ->
           failwith (Printf.sprintf "%s: unsupported profile version %s" path v)
         | [ "vm"; v ] -> vm := v
         | [ "label"; v ] -> label := v
         | [ "site"; f; b; exec; pin; pout; seg; cpu; retired; memops ] ->
           Hashtbl.replace sites (Site.make f b)
             {
               exec = int_of_string exec;
               paging_in = int_of_string pin;
               paging_out = int_of_string pout;
               segment = int_of_string seg;
               cpu = float_of_string cpu;
               retired = int_of_string retired;
               mem_ops = int_of_string memops;
             }
         | [ "fold"; k; v ] -> Hashtbl.replace folded k (int_of_string v)
         | _ -> bad line
     done
   with
  | End_of_file -> close_in ic
  | e ->
    close_in ic;
    raise e);
  { vm = !vm; label = !label; sites; folded }
