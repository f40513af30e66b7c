(** The bench harness: regenerates every table and figure of the paper
    (see DESIGN.md's experiment index) and prints each next to the
    paper's reported values.

    Usage:
      dune exec bench/main.exe                 # full run
      dune exec bench/main.exe -- --quick      # reduced sizes (CI)
      dune exec bench/main.exe -- --only fig13 # one experiment
      dune exec bench/main.exe -- --jobs 4     # parallel sweep cells
      dune exec bench/main.exe -- --list       # experiment ids

    The shared 58x71 sweep runs on the multicore harness; --jobs (or
    ZKOPT_JOBS) sets the worker-domain count, defaulting to the
    machine's recommended domain count. *)

let experiments =
  [ "fig2"; "fig3"; "tab1"; "fig4"; "corr"; "fig5"; "fig6"; "subseq"; "fig7";
    "fig8"; "fig9"; "fig10"; "fig11"; "tab2"; "fig12"; "inlthr"; "fig13";
    "fig14"; "tab5"; "sp1bug"; "isa"; "settle"; "prof"; "micro" ]

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  let only =
    let rec find = function
      | "--only" :: id :: _ -> Some id
      | _ :: tl -> find tl
      | [] -> None
    in
    find args
  in
  if List.mem "--list" args then begin
    List.iter print_endline experiments;
    exit 0
  end;
  (match only with
  | Some id when not (List.mem id experiments) ->
    Printf.eprintf "unknown experiment %s; try --list\n" id;
    exit 1
  | _ -> ());
  let size =
    if quick then Zkopt_workloads.Workload.Quick else Zkopt_workloads.Workload.Full
  in
  let ga_iters =
    match Sys.getenv_opt "ZKOPT_GA_ITERS" with
    | Some s -> int_of_string s
    | None -> if quick then 24 else 120
  in
  let jobs =
    let rec find = function
      | "--jobs" :: n :: _ -> Some (int_of_string n)
      | _ :: tl -> find tl
      | [] -> None
    in
    match (find args, Sys.getenv_opt "ZKOPT_JOBS") with
    | Some n, _ -> max 1 n
    | None, Some s -> max 1 (int_of_string s)
    | None, None -> Zkopt_exec.Pool.recommended_jobs ()
  in
  let want id = match only with None -> true | Some o -> String.equal o id in
  let needs_sweep =
    List.exists want
      [ "fig3"; "tab1"; "fig4"; "corr"; "fig5"; "fig6"; "subseq"; "fig7";
        "fig8"; "fig13"; "fig14"; "tab5" ]
  in
  let t0 = Unix.gettimeofday () in
  Printf.printf
    "zkopt bench — reproducing 'Evaluating Compiler Optimization Impacts on \
     zkVM Performance'\n";
  Printf.printf "mode: %s sizes; GA evaluations per program: %d\n"
    (if quick then "quick" else "full")
    ga_iters;
  let sweep =
    if needs_sweep then begin
      Printf.eprintf "running the 58x71 profile sweep (%d jobs)...\n%!" jobs;
      let s = Sweep.run ~jobs ~size in
      Printf.eprintf "sweep done in %.1fs\n%!" (Unix.gettimeofday () -. t0);
      Some s
    end
    else None
  in
  let with_sweep f = Option.iter f sweep in
  if want "fig2" then begin
    Exp_cases.fig2a ();
    Exp_cases.fig2b ()
  end;
  if want "fig3" then with_sweep Exp_rq1.fig3;
  if want "tab1" then with_sweep Exp_rq1.tab1;
  if want "fig4" then with_sweep Exp_rq1.fig4;
  if want "corr" then with_sweep Exp_rq1.correlation;
  if want "fig5" then with_sweep Exp_rq2.fig5;
  if want "fig6" || want "subseq" then
    with_sweep (fun s ->
        let results =
          Exp_rq2.autotune_suites ~size ~iterations:ga_iters ~jobs s
        in
        Exp_rq2.subsequences results);
  if want "fig7" then with_sweep Exp_rq3.fig7;
  if want "fig8" then with_sweep Exp_rq3.fig8;
  if want "fig9" then Exp_cases.fig9 ();
  if want "fig10" then Exp_cases.fig10 ();
  if want "fig11" then Exp_cases.fig11 ();
  if want "tab2" then Exp_cases.tab2 ();
  if want "fig12" then Exp_cases.fig12 ();
  if want "inlthr" then Exp_cases.inline_threshold ~size ();
  if want "fig13" then with_sweep (Exp_impl.fig13 ~size);
  if want "fig14" then with_sweep Exp_impl.fig14;
  if want "tab5" then with_sweep Exp_impl.tab5;
  if want "sp1bug" then Exp_sp1bug.run ~size ();
  if want "isa" then Exp_isa.run ();
  if want "settle" then Exp_settle.run ();
  if want "prof" then Exp_prof.run ();
  if want "micro" then Micro.run ();
  Printf.printf "\ntotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)
