(** Set-associative LRU data-cache model (default: 32 KiB, 8-way, 64-byte
    lines — an L1d in the class of the paper's EPYC testbed). *)

type t = {
  ways : int;
  line_shift : int;            (* log2 line_bytes *)
  set_shift : int;             (* log2 sets *)
  tags : int array array;      (* [set].[way] = tag, -1 empty *)
  ages : int array array;      (* LRU stamps *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  (* single-stream next-line prefetcher: a second sequential miss starts a
     stream and pulls the following lines in.  One tracker only, so
     interleaved streams defeat it -- the mechanism that makes loop
     fission profitable on the CPU model (paper Fig. 2b). *)
  mutable last_miss_line : int;  (* min_int until the first miss *)
  mutable prefetches : int;
}

(* [n] = 2^k, or [Invalid_argument]: the hot path divides by shifting *)
let log2_exact what n =
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg (Printf.sprintf "Cache.create: %s = %d is not a power of two" what n);
  let rec go k = if 1 lsl k = n then k else go (k + 1) in
  go 0

let create ?(size_bytes = 32 * 1024) ?(ways = 8) ?(line_bytes = 64) () =
  let sets = size_bytes / (ways * line_bytes) in
  {
    ways;
    line_shift = log2_exact "line_bytes" line_bytes;
    set_shift = log2_exact "sets" sets;
    tags = Array.init sets (fun _ -> Array.make ways (-1));
    ages = Array.init sets (fun _ -> Array.make ways 0);
    clock = 0;
    hits = 0;
    misses = 0;
    last_miss_line = min_int;
    prefetches = 0;
  }

(* the way holding [tag], or -1 *)
let rec find tags tag w ways =
  if w >= ways then -1
  else if Array.unsafe_get tags w = tag then w
  else find tags tag (w + 1) ways

let fill t line =
  let set = line land ((1 lsl t.set_shift) - 1) in
  let tag = line lsr t.set_shift in
  let tags = t.tags.(set) and ages = t.ages.(set) in
  if find tags tag 0 t.ways < 0 then begin
    let victim = ref 0 in
    for w = 1 to t.ways - 1 do
      if ages.(w) < ages.(!victim) then victim := w
    done;
    tags.(!victim) <- tag;
    ages.(!victim) <- t.clock
  end

(** Access unsigned address [a]; returns [true] on hit.  Misses fill the
    LRU way and may trigger the stream prefetcher. *)
let access t (a : int) : bool =
  let line = a lsr t.line_shift in
  let set = line land ((1 lsl t.set_shift) - 1) in
  let tag = line lsr t.set_shift in
  t.clock <- t.clock + 1;
  let w = find t.tags.(set) tag 0 t.ways in
  if w >= 0 then begin
    t.ages.(set).(w) <- t.clock;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    fill t line;
    (* a stream starts on a miss at most five lines above the previous
       one; [line - 5] cannot wrap, while [line - t.last_miss_line]
       would against the [min_int] sentinel, so the first miss of a
       run starts no stream *)
    if line > t.last_miss_line && line - 5 <= t.last_miss_line then begin
      (* sequential stream detected: run ahead *)
      for k = 1 to 4 do
        fill t (line + k)
      done;
      t.prefetches <- t.prefetches + 4
    end;
    t.last_miss_line <- line;
    false
  end
