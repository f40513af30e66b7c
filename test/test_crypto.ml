(** Known-answer tests for the cryptographic primitives behind the
    precompiles, plus precompile dispatch checks. *)

open Zkopt_ir

(* SHA-256("abc"): compressing the standard padded block (words in the
   big-endian interpretation FIPS 180-4 uses) must yield the canonical
   digest. *)
let test_sha256_abc () =
  let block = Array.make 16 0l in
  block.(0) <- 0x61626380l;
  block.(15) <- 24l;
  let state = Array.copy Extern.sha256_init_state in
  Extern.sha256_compress_words state block;
  let expected =
    [| 0xBA7816BFl; 0x8F01CFEAl; 0x414140DEl; 0x5DAE2223l; 0xB00361A3l;
       0x96177A9Cl; 0xB410FF61l; 0xF20015ADl |]
  in
  Array.iteri
    (fun i w ->
      Alcotest.(check int32) (Printf.sprintf "digest[%d]" i) expected.(i) w)
    state

(* Keccak-f[1600] on the all-zero state: the first lane of the XKCP
   reference test vector (bytes E7 DD E1 40 79 8F 25 F1, little-endian),
   plus determinism and avalanche sanity. *)
let test_keccakf_zero_state () =
  let st = Array.make 25 0L in
  Extern.keccak_f st;
  Alcotest.(check int64) "lane 0" 0xF1258F7940E1DDE7L st.(0);
  Alcotest.(check bool) "all lanes populated" true
    (Array.for_all (fun l -> not (Int64.equal l 0L)) st);
  let st2 = Array.make 25 0L in
  Extern.keccak_f st2;
  Alcotest.(check bool) "deterministic" true (st = st2);
  (* flipping one input bit changes (far) more than one output lane *)
  let st3 = Array.make 25 0L in
  st3.(0) <- 1L;
  Extern.keccak_f st3;
  let differing = ref 0 in
  Array.iteri (fun i l -> if not (Int64.equal l st.(i)) then incr differing) st3;
  Alcotest.(check bool) "avalanche" true (!differing >= 20)

(* The simulated signature precompiles: a tag derived by the documented
   scheme verifies; a perturbed tag does not. *)
let test_signature_scheme () =
  let mem_tbl = Hashtbl.create 64 in
  let mem =
    { Extern.load32 = (fun a -> Option.value ~default:0l (Hashtbl.find_opt mem_tbl a));
      store32 = (fun a v -> Hashtbl.replace mem_tbl a v) }
  in
  (* msg at 0x100 (4 words), key at 0x200, sig at 0x300 *)
  for i = 0 to 3 do
    mem.Extern.store32 (Int32.of_int (0x100 + (4 * i))) (Int32.of_int (100 + i))
  done;
  for i = 0 to 7 do
    mem.Extern.store32 (Int32.of_int (0x200 + (4 * i))) (Int32.of_int (7 * i))
  done;
  let tag =
    Extern.signature_tag ~separator:0x0ecd5a01l mem ~msg_ptr:0x100l
      ~msg_words:4 ~key_ptr:0x200l
  in
  Array.iteri
    (fun i w -> mem.Extern.store32 (Int32.of_int (0x300 + (4 * i))) w)
    tag;
  let args = [| 0x100L; 4L; 0x300L; 0x200L |] in
  Alcotest.(check (option int64)) "valid signature" (Some 1L)
    (Extern.run "ecdsa_verify" mem args);
  (* flip a bit *)
  mem.Extern.store32 0x300l (Int32.logxor tag.(0) 1l);
  Alcotest.(check (option int64)) "tampered signature" (Some 0L)
    (Extern.run "ecdsa_verify" mem args);
  (* the ed25519 separator yields a different tag *)
  let tag2 =
    Extern.signature_tag ~separator:0x0ed25519l mem ~msg_ptr:0x100l
      ~msg_words:4 ~key_ptr:0x200l
  in
  Alcotest.(check bool) "domain separation" false (tag = tag2)

let test_bigint_mulmod () =
  let mem_tbl = Hashtbl.create 64 in
  let mem =
    { Extern.load32 = (fun a -> Option.value ~default:0l (Hashtbl.find_opt mem_tbl a));
      store32 = (fun a v -> Hashtbl.replace mem_tbl a v) }
  in
  (* a = 7, b = 9, m = 5 over 8-word LE buffers -> 63 mod 5 = 3 *)
  let write base v = mem.Extern.store32 base (Int32.of_int v) in
  write 0x100l 7;
  write 0x140l 9;
  write 0x180l 5;
  ignore (Extern.run "bigint_mulmod" mem [| 0x1C0L; 0x100L; 0x140L; 0x180L |]);
  Alcotest.(check int32) "7*9 mod 5" 3l (mem.Extern.load32 0x1C0l);
  (* larger: (2^32-1)^2 mod (2^32+1)... use (2^32-1) = [ffffffff, 0..];
     m = [1, 1, 0...] (2^32+1); (2^32-1)^2 = 2^64 - 2^33 + 1;
     mod (2^32+1): 2^32 ≡ -1, so 2^64 ≡ 1, 2^33 ≡ -2 -> 1 + 2 + 1 = 4 *)
  mem.Extern.store32 0x100l (-1l);
  write 0x104l 0;
  mem.Extern.store32 0x140l (-1l);
  write 0x144l 0;
  write 0x180l 1;
  write 0x184l 1;
  ignore (Extern.run "bigint_mulmod" mem [| 0x1C0L; 0x100L; 0x140L; 0x180L |]);
  Alcotest.(check int32) "big case" 4l (mem.Extern.load32 0x1C0l)

(* precompile arity table agrees with the emulator's syscall dispatch *)
let test_syscall_ids_roundtrip () =
  List.iter
    (fun (name, _arity) ->
      let id = Zkopt_riscv.Emulator.precompile_syscall_id name in
      let name', _ = Zkopt_oracle.Ref_emulator.precompile_of_syscall id in
      Alcotest.(check string) "roundtrip" name name')
    Extern.signatures

let tests =
  [
    Alcotest.test_case "sha256 'abc' known answer" `Quick test_sha256_abc;
    Alcotest.test_case "keccak-f zero state" `Quick test_keccakf_zero_state;
    Alcotest.test_case "signature scheme" `Quick test_signature_scheme;
    Alcotest.test_case "bigint mulmod" `Quick test_bigint_mulmod;
    Alcotest.test_case "syscall id roundtrip" `Quick test_syscall_ids_roundtrip;
  ]
