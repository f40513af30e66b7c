(** The zkopt benchmark's entry point.

    {v
    perfbench/run.sh --workload matrix|levels --seed N --seconds S --trace 0|1
    v}

    Runs repeats of one workload until [--seconds] are spent, checks
    every output against the interpreter reference and every repeat's
    rows against the first, then prints a report followed by one JSON
    line.  With [--trace 0] that line carries the end-to-end metrics,
    measured untraced; with [--trace 1] the repeats are followed by one
    traced repeat, and the line carries its per-layer metrics.  A wrong
    output or differing rows end the run with exit code 1 and no JSON
    line. *)

open Perfbench
module Pool = Zkopt_exec.Pool
module Stats = Zkopt_stats.Stats

type args = {
  workload : Inputs.workload;
  seed : int;
  seconds : float;
  trace : bool;
  probe : bool;  (** child mode of the set-up measurement *)
}

let usage =
  "usage: main.exe --workload matrix|levels --seed N --seconds S --trace 0|1"

let parse argv =
  let rec go acc = function
    | "--setup-probe" :: rest -> go (("probe", "1") :: acc) rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> failwith usage
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> failwith usage in
  let num k conv = match conv (get k) with Some v -> v | None -> failwith usage in
  let workload =
    match Inputs.of_name (get "workload") with Some w -> w | None -> failwith usage
  in
  {
    workload;
    seed = num "seed" int_of_string_opt;
    seconds = (if List.mem_assoc "seconds" kv then num "seconds" float_of_string_opt else 0.0);
    trace = (if List.mem_assoc "trace" kv then num "trace" int_of_string_opt = 1 else false);
    probe = List.mem_assoc "probe" kv;
  }

(* ---- set-up time ------------------------------------------------------ *)

(** Set-up probes before each repeat: they sample the host across the
    whole window, as the throughput figures do, rather than at one
    instant of it. *)
let setup_probes = 8

(** Wall times from spawning [setup_probes] fresh processes of this
    benchmark, one after the other, until each has set the system up
    and opened the compile cache (module initialization included). *)
let setup_seconds (args : args) =
  let exe = Sys.executable_name in
  let argv =
    [| exe; "--setup-probe"; "--workload"; Inputs.name args.workload; "--seed";
       string_of_int args.seed |]
  in
  List.init setup_probes (fun _ ->
      let t0 = Unix.gettimeofday () in
      let ic = Unix.open_process_args_in exe argv in
      let line = In_channel.input_line ic in
      match (Unix.close_process_in ic, Option.bind line float_of_string_opt) with
      | Unix.WEXITED 0, Some ready -> ready -. t0
      | _ -> failwith "set-up probe failed")

(* ---- provenance ------------------------------------------------------- *)

let read path = String.trim (In_channel.with_open_bin path In_channel.input_all)

(** The checkout's commit, read from [.git] without running git;
    "unknown" outside a repository. *)
let git_sha () =
  try
    match String.split_on_char ' ' (read ".git/HEAD") with
    | [ "ref:"; r ] -> (
      try read (Filename.concat ".git" r)
      with Sys_error _ ->
        Engine.read_lines ".git/packed-refs"
        |> List.find_map (fun l ->
               match String.split_on_char ' ' l with
               | [ sha; r' ] when r' = r -> Some sha
               | _ -> None)
        |> Option.value ~default:"unknown")
    | [ sha ] -> sha
    | _ -> "unknown"
  with Sys_error _ -> "unknown"

(** Peak resident set of this process, from the kernel's high-water
    mark. *)
let peak_rss_mb () =
  Engine.read_lines "/proc/self/status"
  |> List.find_map (fun l ->
         if String.starts_with ~prefix:"VmHWM:" l then
           Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
         else None)
  |> function
  | Some mb -> mb
  | None -> failwith "no VmHWM in /proc/self/status"

(* ---- output ------------------------------------------------------------ *)

let result_line ~attempted ~failed (metrics : (string * string * float) list) =
  Printf.sprintf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            if not (Float.is_finite v) then failwith (name ^ " is not finite");
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit)
          metrics))

(** A reported value, with the quartiles of the samples it comes from
    and the samples themselves. *)
let print_summary name unit value samples =
  let q1, _, q3 = Bstats.quartiles samples in
  Printf.printf "  %-20s %-5s %-12.6g q1 %-11.6g q3 %-11.6g n %d: %s\n" name unit
    value q1 q3 (List.length samples)
    (String.concat " " (List.map (Printf.sprintf "%.6g") samples))

(** Cells (or evaluations) per second of one pass in each repeat. *)
let rates pass_of repeats =
  List.map
    (fun r ->
      let p = pass_of r in
      float_of_int p.Engine.attempted /. p.Engine.wall)
    repeats

(* ---- the run ----------------------------------------------------------- *)

(** Repeats until the next one would overrun [seconds], and at least
    [least]; with the peak resident memory after the first, which covers
    a fixed amount of work whatever the number of repeats, and the
    set-up times [probe] took before each repeat. *)
let window ~probe env refs ~least seconds =
  let t0 = Unix.gettimeofday () in
  let setup = ref (probe ()) in
  let first = Engine.repeat env refs in
  let rss = peak_rss_mb () in
  let rec go acc n =
    let now = Unix.gettimeofday () in
    if n < least || now +. ((now -. t0) /. float_of_int n) <= t0 +. seconds then begin
      setup := !setup @ probe ();
      go (Engine.repeat env refs :: acc) (n + 1)
    end
    else List.rev acc
  in
  let repeats = go [ first ] 1 in
  (repeats, rss, !setup)

let run (args : args) =
  let inp = Inputs.make args.workload ~seed:args.seed in
  let root = ".perfbench_run" in
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  if args.probe then begin
    let env = Engine.setup ~dir inp in
    ignore (Engine.open_cache env);
    Printf.printf "%.9f\n%!" (Unix.gettimeofday ());
    Pool.shutdown env.Engine.pool
  end
  else begin
    Engine.mkdir_p dir;
    Fun.protect
      ~finally:(fun () ->
        Engine.rm_rf dir;
        if Sys.file_exists root && Sys.readdir root = [||] then Sys.rmdir root)
      (fun () ->
        let env = Engine.setup ~dir inp in
        Fun.protect ~finally:(fun () -> Pool.shutdown env.Engine.pool) @@ fun () ->
        let refs = Engine.references env in
        (* two repeats at least, so that every run compares rows
           across repeats; a traced run compares against the traced
           repeat instead *)
        let probe () = if args.trace then [] else setup_seconds args in
        let repeats, rss, setup =
          window ~probe env refs ~least:(if args.trace then 1 else 2) args.seconds
        in
        let tracer = Engine.tracer () in
        let traced =
          if args.trace then Some (Engine.repeat ~tracer env refs) else None
        in
        let all = repeats @ Option.to_list traced in
        let passes = List.concat_map (fun r -> [ r.Engine.cold; r.Engine.warm ]) all in
        let digest = (List.hd passes).Engine.digest in
        List.iteri
          (fun i (p : Engine.pass) ->
            if p.Engine.digest <> digest then
              Engine.fail "rows of pass %d (%s) differ from the first repeat's (%s)"
                i p.Engine.digest digest)
          passes;
        let attempted = List.fold_left (fun a p -> a + p.Engine.attempted) 0 passes in
        (* a quarantined cell has already failed the run *)
        let failed = 0 in
        let cold r = r.Engine.cold and warm r = r.Engine.warm in
        Printf.printf
          "perfbench workload=%s seed=%d trace=%d repeats=%d git=%s machine=%s\n"
          (Inputs.name inp.Inputs.workload) inp.Inputs.seed
          (if args.trace then 1 else 0) (List.length repeats) (git_sha ())
          (Pool.machine_fingerprint ());
        Printf.printf "inputs: %d programs (%s); %d profiles; backends %s\n"
          (List.length inp.Inputs.programs)
          (String.concat "," inp.Inputs.programs)
          (List.length inp.Inputs.profiles)
          (String.concat "," inp.Inputs.backends);
        Printf.printf "rows_digest: %s\n" digest;
        Printf.printf "attempted %d, failed %d\n" attempted failed;
        match traced with
        | None ->
          let one v = (v, [ v ]) and median vs = (Stats.median vs, vs) in
          let measured = function
            | "setup_s" -> median setup
            | "cells_per_s" -> median (rates cold repeats)
            | "warm_cells_per_s" -> median (rates warm repeats)
            | "peak_rss_mb" -> one rss
            | name -> failwith ("no measurement for " ^ name)
          in
          let rows = List.map (fun (name, unit) -> (name, unit, measured name)) Engine.end_to_end in
          (* the guest-code ratios repeat exactly *)
          let extra =
            ("failed_frac", "frac", one (float_of_int failed /. float_of_int attempted))
            :: List.map (fun (name, v) -> (name, "ratio", one v))
                 (List.hd repeats).Engine.cold.Engine.guest
          in
          List.iter (fun (name, unit, (v, vs)) -> print_summary name unit v vs) (rows @ extra);
          print_endline
            (result_line ~attempted ~failed
               (List.map (fun (name, unit, (v, _)) -> (name, unit, v)) rows))
        | Some r ->
          let untraced_wall =
            Stats.median
              (List.map (fun r -> r.Engine.cold.Engine.wall +. r.Engine.warm.Engine.wall) repeats)
          in
          let tune =
            if inp.Inputs.workload = Inputs.Levels then Engine.tune_layers env else []
          in
          let values = Engine.layer_values tracer r ~untraced_wall ~tune in
          List.iter
            (fun (name, unit, moves) ->
              Printf.printf "  %-26s %-9s %14.4f   moves %s\n" name unit
                (List.assoc name values) moves)
            Engine.layers;
          Printf.printf
            "layer self times %.3f ms + remainder %.3f ms = traced wall %.3f ms\n"
            (1000.0 *. Spans.attributed tracer.Engine.sp)
            (1000.0 *. (tracer.Engine.wall -. Spans.attributed tracer.Engine.sp))
            (1000.0 *. tracer.Engine.wall);
          print_endline
            (result_line ~attempted ~failed
               (List.map
                  (fun (name, unit, _) -> (name, unit, List.assoc name values))
                  Engine.layers)))
  end

let () =
  match run (parse Sys.argv) with
  | () -> ()
  | exception Engine.Mismatch msg ->
    prerr_endline ("perfbench: output check failed: " ^ msg);
    exit 1
  | exception Failure msg ->
    prerr_endline ("perfbench: " ^ msg);
    exit 2
