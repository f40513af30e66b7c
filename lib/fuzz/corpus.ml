(** Persistent bug corpus.

    Every campaign-found (and minimized) divergence is stored as one
    self-describing file under a corpus directory: the program source
    coordinate, generator knobs, pipeline, backend set, any injected
    fault, the divergence classification key, and the minimizer's
    reduction trace.  There is no IR parser in this codebase, so the
    minimized program is reconstructed on replay by regenerating the
    source and re-applying the recorded reductions; the pretty-printed
    IR after the [---] separator is informational only and ignored by
    the loader.

    Corpus entries double as a regression gate: {!replay} re-runs the
    full oracle stack and checks that the divergence still classifies
    under the same key (see [dev/corpuscheck.ml], wired into [@smoke]).

    File format ([zkopt-bug-v1]):
    {v
    zkopt-bug-v1
    source: seed:42
    pipeline: zk:inline;licm
    backends: risc0,sp1,valida
    fault: sp1-dense:silent-halt-on-boundary-jalr
    divergence: sp1-dense:emulator-trap
    detail: shard boundary fault (jalr at 0x...)
    reduce: drop-block main bb3
    reduce: imm-operand main entry 2 0
    ---
    <pretty-printed minimized IR, informational>
    v} *)

open Zkopt_ir
module Faultplan = Zkopt_harness.Faultplan
module Backend = Zkopt_backend.Backend

type entry = {
  source : Case.source;
  pipeline : Case.pipeline;
  backends : string list;  (** backend names, resolved on replay *)
  fault : (string * Zkopt_zkvm.Machine.fault) option;
      (** injected executor fault, as [(vm, kind)]; the site coordinates
          are the entry's own source/pipeline *)
  key : string;  (** {!Case.divergence_key} of the original finding *)
  detail : string;  (** human-readable detail of the original finding *)
  steps : Minimize.step list;  (** accepted reduction trace, in order *)
}

let version = "zkopt-bug-v1"

(** Stable identity (and filename stem) for an entry: a digest of the
    coordinates that make two findings "the same bug". *)
let id (e : entry) : string =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [
            Case.source_name e.source;
            e.pipeline.Case.spec;
            String.concat "," e.backends;
            (match e.fault with
            | None -> "none"
            | Some (vm, k) -> vm ^ ":" ^ Faultplan.kind_name k);
            e.key;
          ]))

let sanitize (s : string) : string =
  String.map (function '\n' | '\t' | '\r' -> ' ' | c -> c) s

(** The entry's injected fault as a one-site plan keyed by the entry's
    own coordinates — exactly what {!Case.run} looks the fault up by. *)
let faultplan (e : entry) : Faultplan.t =
  match e.fault with
  | None -> Faultplan.none
  | Some (vm, kind) ->
    Faultplan.inject
      [
        ( {
            Faultplan.program = Case.source_name e.source;
            profile = e.pipeline.Case.spec;
            vm;
          },
          kind );
      ]

(** Rebuild the minimized program: regenerate the source and re-apply
    the reduction trace.  [Error] if the trace no longer applies (e.g.
    the generator changed under the corpus). *)
let build (e : entry) : (Modul.t, string) result =
  match Case.build_source e.source with
  | exception exn ->
    Error
      (Printf.sprintf "source %S failed to build: %s"
         (Case.source_name e.source) (Printexc.to_string exn))
  | m ->
    if Minimize.apply_all m e.steps then Ok m
    else Error "reduction trace no longer applies to the regenerated source"

let to_string (e : entry) ~(program : Modul.t option) : string =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "%s" version;
  line "source: %s" (Case.source_name e.source);
  line "pipeline: %s" e.pipeline.Case.spec;
  line "backends: %s" (String.concat "," e.backends);
  line "fault: %s"
    (match e.fault with
    | None -> "none"
    | Some (vm, k) -> vm ^ ":" ^ Faultplan.kind_name k);
  line "divergence: %s" e.key;
  line "detail: %s" (sanitize e.detail);
  List.iter (fun s -> line "reduce: %s" (Minimize.step_to_string s)) e.steps;
  (match program with
  | None -> ()
  | Some m ->
    line "---";
    Buffer.add_string buf (Printer.modul m));
  Buffer.contents buf

let of_string (s : string) : (entry, string) result =
  let lines = String.split_on_char '\n' s in
  match lines with
  | header :: rest when String.equal header version -> (
    let strip_prefix p s =
      let lp = String.length p in
      if String.length s >= lp && String.equal (String.sub s 0 lp) p then
        Some (String.sub s lp (String.length s - lp))
      else None
    in
    let source = ref None
    and pipeline = ref None
    and backends = ref None
    and fault = ref None
    and key = ref None
    and detail = ref ""
    and steps = ref []
    and err = ref None in
    let fail fmt = Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt in
    (try
       List.iter
         (fun l ->
           if String.equal l "---" then raise Exit
           else if String.equal (String.trim l) "" then ()
           else
             match strip_prefix "source: " l with
             | Some v -> (
               match Case.source_of_name v with
               | Some s -> source := Some s
               | None -> fail "bad source %S" v)
             | None -> (
               match strip_prefix "pipeline: " l with
               | Some v -> (
                 match Case.pipeline_of_spec v with
                 | Ok p -> pipeline := Some p
                 | Error e -> fail "bad pipeline: %s" e)
               | None -> (
                 match strip_prefix "backends: " l with
                 | Some v ->
                   backends :=
                     Some
                       (List.filter
                          (fun b -> b <> "")
                          (String.split_on_char ',' v))
                 | None -> (
                   match strip_prefix "fault: " l with
                   | Some "none" -> fault := Some None
                   | Some v -> (
                     match String.index_opt v ':' with
                     | None -> fail "bad fault %S" v
                     | Some i -> (
                       let vm = String.sub v 0 i in
                       let kn =
                         String.sub v (i + 1) (String.length v - i - 1)
                       in
                       match Faultplan.kind_of_name kn with
                       | Some k -> fault := Some (Some (vm, k))
                       | None -> fail "unknown fault kind %S" kn))
                   | None -> (
                     match strip_prefix "divergence: " l with
                     | Some v -> key := Some v
                     | None -> (
                       match strip_prefix "detail: " l with
                       | Some v -> detail := v
                       | None -> (
                         match strip_prefix "reduce: " l with
                         | Some v -> (
                           match Minimize.step_of_string v with
                           | Some s -> steps := s :: !steps
                           | None -> fail "bad reduction step %S" v)
                         | None -> fail "unrecognized line %S" l)))))))
         rest
     with Exit -> ());
    match (!err, !source, !pipeline, !backends, !key) with
    | Some e, _, _, _, _ -> Error e
    | None, Some source, Some pipeline, Some backends, Some key ->
      Ok
        {
          source;
          pipeline;
          backends;
          fault = Option.value !fault ~default:None;
          key;
          detail = !detail;
          steps = List.rev !steps;
        }
    | None, _, _, _, _ -> Error "missing source/pipeline/backends/divergence")
  | _ -> Error (Printf.sprintf "missing %s header" version)

(* ---- directory I/O --------------------------------------------------- *)

let entry_path ~dir (e : entry) : string = Filename.concat dir (id e ^ ".bug")

(** Write [e] under [dir] (created if needed); returns the file path.
    Idempotent per {!id}: re-finding the same bug overwrites in place. *)
let save ~dir (e : entry) : string =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = entry_path ~dir e in
  let program = match build e with Ok m -> Some m | Error _ -> None in
  let oc = open_out path in
  output_string oc (to_string e ~program);
  close_out oc;
  path

let load_file (path : string) : (entry, string) result =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    of_string s

(** All [*.bug] entries under [dir], sorted by filename so replay order
    is deterministic.  A missing directory is an empty corpus. *)
let load_dir (dir : string) : (string * (entry, string) result) list =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".bug")
    |> List.sort String.compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           (path, load_file path))

(* ---- replay ---------------------------------------------------------- *)

type replay =
  | Reproduced  (** same divergence key as recorded *)
  | Changed of string  (** diverged, but under a different key *)
  | Vanished  (** all oracles now agree *)
  | Broken of string  (** the entry could not be rebuilt *)

let replay_name = function
  | Reproduced -> "reproduced"
  | Changed k -> "changed:" ^ k
  | Vanished -> "vanished"
  | Broken _ -> "broken"

(** Re-run the full oracle stack on the rebuilt minimized program and
    compare classification keys. *)
let replay ?(fuel = Case.default_fuel) (e : entry) : replay =
  match build e with
  | Error msg -> Broken msg
  | Ok base -> (
    match List.map Case.resolve_backend e.backends with
    | exception exn ->
      Broken (Printf.sprintf "backend resolution failed: %s" (Printexc.to_string exn))
    | backends -> (
      let case = { Case.source = e.source; pipeline = e.pipeline; backends } in
      match Case.run ~faultplan:(faultplan e) ~fuel case ~base with
      | Case.Agree -> Vanished
      | Case.Diverged d ->
        let k = Case.divergence_key d in
        if String.equal k e.key then Reproduced else Changed k))
