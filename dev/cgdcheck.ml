(* Codegen identity gate (dune build @smoke): every suite program at
   Quick under the 71 profiles and -O3(zkvm), 4,176 cells, is prepared
   ([Measure.prepare_ir]), fingerprinted and compiled, and each cell's
   code, source map, symbols, data end, per-function stats, static size
   and fingerprint are digested.  Each program's 72 cell digests must
   digest to the value recorded for it in the expected file; a failure
   names every program whose code moved.  The last line prints the
   digest over all 4,176 cells.

     cgdcheck.exe FILE           check against FILE
     cgdcheck.exe --write FILE   record the current digests in FILE

   Record new digests only for a change that is meant to move code. *)

open Zkopt_core
module W = Zkopt_workloads.Workload
module Seedfmt = Zkopt_devutil.Seedfmt

let tool = "cgdcheck"

let profiles = Profile.all_71 @ [ Profile.Zkvm_o3 ]

let cell (w : W.t) profile =
  let m = Measure.prepare_ir ~build:(fun () -> w.W.build W.Quick) profile in
  let fp = Zkopt_exec.Fingerprint.of_modul m in
  let c = Measure.compile_ir m in
  let p = c.Measure.codegen.Zkopt_riscv.Codegen.program in
  let symbols =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) p.Zkopt_riscv.Asm.symbols [])
  in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( p.Zkopt_riscv.Asm.code,
            Array.to_list p.Zkopt_riscv.Asm.srcmap,
            symbols,
            p.Zkopt_riscv.Asm.data_end,
            c.Measure.codegen.Zkopt_riscv.Codegen.stats,
            c.Measure.static_instrs,
            fp )
          [ Marshal.No_sharing ]))

let read_expected file =
  In_channel.with_open_text file In_channel.input_lines
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | [ name; digest ] -> Some (name, digest)
         | _ -> None)

let () =
  let write, file =
    match Sys.argv with
    | [| _; "--write"; f |] -> (true, f)
    | [| _; f |] -> (false, f)
    | _ ->
      prerr_endline "usage: cgdcheck.exe [--write] FILE";
      exit 2
  in
  let all = Buffer.create (4176 * 33) in
  let got =
    List.map
      (fun (w : W.t) ->
        let lines = Buffer.create (72 * 33) in
        List.iter
          (fun p ->
            Buffer.add_string lines (cell w p);
            Buffer.add_char lines '\n')
          profiles;
        Buffer.add_buffer all lines;
        (w.W.name, Digest.to_hex (Digest.string (Buffer.contents lines))))
      (Zkopt_workloads.Suite.all ())
  in
  if write then
    Out_channel.with_open_text file (fun oc ->
        List.iter (fun (name, d) -> Printf.fprintf oc "%s %s\n" name d) got)
  else begin
    let expected = read_expected file in
    let moved =
      List.filter (fun (name, d) -> List.assoc_opt name expected <> Some d) got
    in
    if moved <> [] then
      Seedfmt.fail ~tool "code moved on %d of %d programs: %s" (List.length moved)
        (List.length got)
        (String.concat " " (List.map fst moved));
    if List.length expected <> List.length got then
      Seedfmt.fail ~tool "%s records %d programs, the suite has %d" file
        (List.length expected) (List.length got)
  end;
  Printf.printf "%s: %d cells digest %s\n" tool
    (List.length got * List.length profiles)
    (Digest.to_hex (Digest.string (Buffer.contents all)));
  Seedfmt.finish tool
