(** Analysis tests: dominators, loops, liveness, stats. *)

open Zkopt_ir
open Zkopt_analysis
module B = Builder

let diamond_func () =
  let m = Modul.create () in
  let f =
    B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
        let c = B.icmp b Instr.Eq (B.imm 1) (B.imm 1) in
        let r = B.var b Ty.I32 (B.imm 0) in
        B.if_ b c
          ~then_:(fun () -> B.set b Ty.I32 r (B.imm 1))
          ~else_:(fun () -> B.set b Ty.I32 r (B.imm 2))
          ();
        B.ret b (Some (Value.Reg r)))
  in
  f

let test_dominators () =
  let f = diamond_func () in
  let cfg = Cfg.of_func f in
  let dom = Dom.compute cfg in
  (* entry dominates everything *)
  for i = 0 to Cfg.size cfg - 1 do
    Alcotest.(check bool) "entry dominates" true (Dom.dominates dom 0 i)
  done;
  (* the then-arm does not dominate the join (label numbering is
     process-global, so find blocks by prefix) *)
  let find prefix =
    let found = ref (-1) in
    for i = 0 to Cfg.size cfg - 1 do
      let l = Cfg.label cfg i in
      if String.length l >= String.length prefix
         && String.sub l 0 (String.length prefix) = prefix
      then found := i
    done;
    Alcotest.(check bool) (prefix ^ " exists") true (!found >= 0);
    !found
  in
  let ti = find "if.then" in
  let join = find "if.join" in
  Alcotest.(check bool) "arm !dom join" false (Dom.dominates dom ti join)

let loop_func () =
  let m = Modul.create () in
  B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
      let s = B.var b Ty.I32 (B.imm 0) in
      B.for_ b ~from:(B.imm 2) ~bound:(B.imm 12) (fun i ->
          B.for_ b ~from:(B.imm 0) ~bound:(B.imm 3) (fun j ->
              B.set b Ty.I32 s (B.add b (Value.Reg s) (B.mul b i j))));
      B.ret b (Some (Value.Reg s)))

let test_loops_and_counted () =
  let f = loop_func () in
  let cfg = Cfg.of_func f in
  let loops = Loops.find cfg in
  Alcotest.(check int) "two loops" 2 (List.length loops);
  let depths = List.sort compare (List.map (fun l -> l.Loops.depth) loops) in
  Alcotest.(check (list int)) "nesting" [ 1; 2 ] depths;
  let defs = Defs.compute f in
  let counted = List.filter_map (Loops.as_counted cfg defs) loops in
  Alcotest.(check int) "both counted" 2 (List.length counted);
  ignore
    (List.find (fun c -> c.Loops.loop.Loops.depth = 1) counted)

let test_trip_count_check () =
  let f = loop_func () in
  let cfg = Cfg.of_func f in
  let defs = Defs.compute f in
  let counted =
    List.filter_map (Loops.as_counted cfg defs) (Loops.find cfg)
  in
  let outer = List.find (fun c -> c.Loops.loop.Loops.depth = 1) counted in
  match Loops.trip_count outer ~init:(Some 2L) with
  | Some n -> Alcotest.(check int) "10 trips" 10 n
  | None -> Alcotest.fail "expected a constant trip count"

let test_liveness () =
  let f = diamond_func () in
  let cfg = Cfg.of_func f in
  let live = Liveness.compute cfg in
  let cross = Liveness.cross_block_regs live in
  (* r (the result var) is live across blocks *)
  Alcotest.(check bool) "some cross-block reg" true
    (not (Intset.is_empty cross))

let test_callgraph_recursion () =
  let m = Modul.create () in
  ignore
    (B.define m "f" ~params:[ Ty.I32 ] ~ret:Ty.I32 (fun b ps ->
         let n = List.nth ps 0 in
         let c = B.icmp b Instr.Sle n (B.imm 0) in
         B.if_ b c ~then_:(fun () -> B.ret b (Some (B.imm 0))) ();
         B.ret b (Some (B.callv b "f" [ B.sub b n (B.imm 1) ]))));
  ignore
    (B.define m "g" ~params:[] ~ret:Ty.I32 (fun b _ ->
         B.ret b (Some (B.callv b "f" [ B.imm 3 ]))));
  ignore
    (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
         B.ret b (Some (B.callv b "g" []))));
  let cg = Callgraph.compute m in
  Alcotest.(check bool) "f recursive" true (Callgraph.is_recursive cg "f");
  Alcotest.(check bool) "g not recursive" false (Callgraph.is_recursive cg "g");
  Alcotest.(check (list string)) "nothing unreachable" []
    (Callgraph.unreachable_funcs m cg)

(* stats *)
let test_stats () =
  let module S = Zkopt_stats.Stats in
  Alcotest.(check (float 1e-9)) "mean" 2.0 (S.mean [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (S.median [ 1.; 2.; 3.; 4. ]);
  Alcotest.(check (float 1e-6)) "pearson perfect" 1.0
    (S.pearson [ 1.; 2.; 3. ] [ 10.; 20.; 30. ]);
  Alcotest.(check (float 1e-6)) "spearman monotone" 1.0
    (S.spearman [ 1.; 2.; 3.; 4. ] [ 1.; 8.; 27.; 64. ]);
  Alcotest.(check (float 1e-6)) "improvement" 50.0
    (S.improvement_pct ~base:2.0 1.0);
  let g, l = S.gain_loss_counts [ 5.0; -3.0; 1.0; 2.5 ] in
  Alcotest.(check (pair int int)) "buckets" (2, 1) (g, l)

let test_autotune_subseq () =
  let module A = Zkopt_autotune.Miner in
  let seqs = [ [ "a"; "b"; "c" ]; [ "b"; "a" ]; [ "c" ] ] in
  Alcotest.(check int) "containing" 2 (A.count_containing "b" seqs);
  Alcotest.(check int) "ordered ab" 1 (A.count_ordered_pair "a" "b" seqs);
  Alcotest.(check int) "ordered ba" 1 (A.count_ordered_pair "b" "a" seqs)

(* ---- Defs against its reference ------------------------------------ *)

module Ref_defs = Zkopt_oracle.Ref_defs

(* Every register of every function, from -1 to two past the largest
   one the function mints, answers as the reference's: def count,
   parameter flag, single-def flag, defining instruction, stability. *)
let defs_differ (m : Modul.t) =
  List.concat_map
    (fun (f : Func.t) ->
      let d = Defs.compute f and r = Ref_defs.compute f in
      let hi = ref f.Func.next_reg in
      Func.iter_instrs f (fun _ i -> Option.iter (fun x -> hi := max !hi (x + 1)) (Instr.def i));
      List.filter_map
        (fun reg ->
          let same =
            Defs.count d reg = Option.value ~default:0 (Hashtbl.find_opt r.Ref_defs.counts reg)
            && Defs.is_param d reg = Ref_defs.is_param r reg
            && Defs.is_single_def d reg = Ref_defs.is_single_def r reg
            && Defs.def_of d reg = Ref_defs.def_of r reg
            && Defs.is_stable d (Value.Reg reg) = Ref_defs.is_stable r (Value.Reg reg)
          in
          if same then None else Some (Printf.sprintf "%s: %%r%d" f.Func.name reg))
        (List.init (!hi + 3) (fun k -> k - 1)))
    m.Modul.funcs

let prop_defs_match_reference =
  QCheck.Test.make ~name:"defs = reference on random programs" ~count:40
    QCheck.(int_range 1 100_000)
    (fun seed -> defs_differ (Pin_modules.random seed) = [])

let test_defs_suite () =
  List.iter
    (fun (what, m) -> Alcotest.(check (list string)) what [] (defs_differ m))
    (Lazy.force Pin_modules.suite)

(* [Defs.compute] is called about 22,000 times per cold [levels] pass:
   it must allocate under 10 minor words per instruction (the hash-table
   form took 15-19). *)
let test_defs_allocation () =
  List.iter
    (fun (what, (m : Modul.t)) ->
      let words =
        Pin_modules.minor_words (fun () -> List.map Defs.compute m.Modul.funcs)
      in
      let per = words /. float_of_int (Modul.instr_count m) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f minor words per instruction < 10" what per)
        true (per < 10.0))
    (Pin_modules.work_cells ())

let tests =
  [
    Alcotest.test_case "dominators" `Quick test_dominators;
    Alcotest.test_case "loops + counted" `Quick test_loops_and_counted;
    Alcotest.test_case "trip count" `Quick test_trip_count_check;
    Alcotest.test_case "liveness" `Quick test_liveness;
    Alcotest.test_case "callgraph recursion" `Quick test_callgraph_recursion;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "autotune subsequences" `Quick test_autotune_subseq;
    QCheck_alcotest.to_alcotest prop_defs_match_reference;
    Alcotest.test_case "defs = reference on the suite" `Quick test_defs_suite;
    Alcotest.test_case "defs allocate under 10 words per instruction" `Quick
      test_defs_allocation;
  ]
