(* Prints the build-identity module: one digest over the files named on
   the command line, each contributing its path and its contents'
   digest, in sorted path order.  Usage: gen.exe FILE... *)

let () =
  let files = List.sort String.compare (List.tl (Array.to_list Sys.argv)) in
  let buf = Buffer.create 8192 in
  List.iter
    (fun f ->
      Buffer.add_string buf f;
      Buffer.add_char buf '\000';
      Buffer.add_string buf (Digest.to_hex (Digest.file f));
      Buffer.add_char buf '\n')
    files;
  Printf.printf
    "(** Digest of the library sources this build was compiled from. *)\n\
     let id = %S\n"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))
