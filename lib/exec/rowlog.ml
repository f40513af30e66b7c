type t = { oc : out_channel; mu : Mutex.t }

let contents path =
  if Sys.file_exists path then
    In_channel.with_open_bin path In_channel.input_all
  else ""

(* Length of the prefix of [s] made of whole, '\n'-terminated lines. *)
let whole_lines s =
  match String.rindex_opt s '\n' with Some i -> i + 1 | None -> 0

let load path ~decode =
  let s = contents path in
  match whole_lines s with
  | 0 -> []
  | n ->
    String.sub s 0 (n - 1) |> String.split_on_char '\n'
    |> List.filter_map decode

let open_ ?header ~fresh path =
  let keep = if fresh then 0 else whole_lines (contents path) in
  let oc =
    open_out_gen
      [ Open_wronly; Open_creat; Open_append; Open_binary ]
      0o644 path
  in
  Unix.ftruncate (Unix.descr_of_out_channel oc) keep;
  if keep = 0 then
    Option.iter
      (fun h ->
        output_string oc (h ^ "\n");
        flush oc)
      header;
  { oc; mu = Mutex.create () }

let append t line =
  if String.contains line '\n' then invalid_arg "Rowlog.append: newline in row";
  Mutex.protect t.mu (fun () ->
      output_string t.oc line;
      output_char t.oc '\n';
      flush t.oc)

let close t = Mutex.protect t.mu (fun () -> close_out_noerr t.oc)
