(** Precompile semantics.

    zkVMs expose accelerated circuits ("precompiles") for heavy primitives;
    the guest invokes them and the proof charges a fixed circuit cost
    instead of per-instruction costs (paper §2, §4.2).  This module holds
    the *functional* semantics, shared bit-for-bit by the IR interpreter
    and the RV32 emulator; the *cost* of each precompile lives in the zkVM
    cost configurations.

    Signature-verification precompiles are simulated: a real secp256k1 /
    ed25519 implementation is out of scope (and irrelevant to compiler
    effects), so "signatures" are SHA-256-based tags over (message, key)
    with a per-scheme domain separator.  Deterministic, verifiable, and
    constant-cost — exactly the property the paper relies on. *)

type mem = {
  load32 : int32 -> int32;
  store32 : int32 -> int32 -> unit;
}

let load64 m a =
  Int64.logor
    (Int64.logand (Int64.of_int32 (m.load32 a)) 0xFFFF_FFFFL)
    (Int64.shift_left (Int64.of_int32 (m.load32 (Int32.add a 4l))) 32)

let store64 m a v =
  m.store32 a (Int64.to_int32 v);
  m.store32 (Int32.add a 4l) (Int64.to_int32 (Int64.shift_right_logical v 32))

(* ------------------------------------------------------------------ *)
(* SHA-256 compression                                                 *)
(* ------------------------------------------------------------------ *)

let sha256_k =
  [| 0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl;
     0x59f111f1l; 0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l;
     0x243185bel; 0x550c7dc3l; 0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l;
     0xc19bf174l; 0xe49b69c1l; 0xefbe4786l; 0x0fc19dc6l; 0x240ca1ccl;
     0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal; 0x983e5152l;
     0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
     0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl;
     0x53380d13l; 0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l;
     0xa2bfe8a1l; 0xa81a664bl; 0xc24b8b70l; 0xc76c51a3l; 0xd192e819l;
     0xd6990624l; 0xf40e3585l; 0x106aa070l; 0x19a4c116l; 0x1e376c08l;
     0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al; 0x5b9cca4fl;
     0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
     0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l |]

let sha256_init_state =
  [| 0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al; 0x510e527fl;
     0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l |]

let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))
let ( +% ) = Int32.add

(* Compress one 16-word block into the 8-word state.  Note the block is
   taken as native little-endian words: guests fill word buffers directly,
   so no byte-order shuffling is modelled (irrelevant to compiler cost). *)
let sha256_compress_words (state : int32 array) (block : int32 array) =
  let w = Array.make 64 0l in
  Array.blit block 0 w 0 16;
  for t = 16 to 63 do
    let s0 =
      Int32.logxor (rotr w.(t - 15) 7)
        (Int32.logxor (rotr w.(t - 15) 18) (Int32.shift_right_logical w.(t - 15) 3))
    in
    let s1 =
      Int32.logxor (rotr w.(t - 2) 17)
        (Int32.logxor (rotr w.(t - 2) 19) (Int32.shift_right_logical w.(t - 2) 10))
    in
    w.(t) <- w.(t - 16) +% s0 +% w.(t - 7) +% s1
  done;
  let a = ref state.(0) and b = ref state.(1) and c = ref state.(2)
  and d = ref state.(3) and e = ref state.(4) and f = ref state.(5)
  and g = ref state.(6) and h = ref state.(7) in
  for t = 0 to 63 do
    let s1 = Int32.logxor (rotr !e 6) (Int32.logxor (rotr !e 11) (rotr !e 25)) in
    let ch = Int32.logxor (Int32.logand !e !f) (Int32.logand (Int32.lognot !e) !g) in
    let t1 = !h +% s1 +% ch +% sha256_k.(t) +% w.(t) in
    let s0 = Int32.logxor (rotr !a 2) (Int32.logxor (rotr !a 13) (rotr !a 22)) in
    let maj =
      Int32.logxor (Int32.logand !a !b)
        (Int32.logxor (Int32.logand !a !c) (Int32.logand !b !c))
    in
    let t2 = s0 +% maj in
    h := !g; g := !f; f := !e; e := !d +% t1;
    d := !c; c := !b; b := !a; a := t1 +% t2
  done;
  state.(0) <- state.(0) +% !a; state.(1) <- state.(1) +% !b;
  state.(2) <- state.(2) +% !c; state.(3) <- state.(3) +% !d;
  state.(4) <- state.(4) +% !e; state.(5) <- state.(5) +% !f;
  state.(6) <- state.(6) +% !g; state.(7) <- state.(7) +% !h

(* Hash a word buffer with a trivial padding scheme (length word appended,
   zero-padded to a block boundary).  Used by the simulated signature
   precompiles; NOT byte-exact SHA-256 padding, which is irrelevant here. *)
let digest_words (words : int32 list) : int32 array =
  let words = words @ [ Int32.of_int (List.length words) ] in
  let state = Array.copy sha256_init_state in
  let block = Array.make 16 0l in
  let rec go = function
    | [] -> ()
    | rest ->
      Array.fill block 0 16 0l;
      let rec fill i = function
        | w :: tl when i < 16 -> block.(i) <- w; fill (i + 1) tl
        | tl -> tl
      in
      let rest = fill 0 rest in
      sha256_compress_words state block;
      if rest <> [] then go rest
  in
  go words;
  state

(* ------------------------------------------------------------------ *)
(* Keccak-f[1600]                                                      *)
(* ------------------------------------------------------------------ *)

let keccak_rc =
  [| 0x0000000000000001L; 0x0000000000008082L; 0x800000000000808aL;
     0x8000000080008000L; 0x000000000000808bL; 0x0000000080000001L;
     0x8000000080008081L; 0x8000000000008009L; 0x000000000000008aL;
     0x0000000000000088L; 0x0000000080008009L; 0x000000008000000aL;
     0x000000008000808bL; 0x800000000000008bL; 0x8000000000008089L;
     0x8000000000008003L; 0x8000000000008002L; 0x8000000000000080L;
     0x000000000000800aL; 0x800000008000000aL; 0x8000000080008081L;
     0x8000000000008080L; 0x0000000080000001L; 0x8000000080008008L |]

let keccak_rot =
  [| 0; 1; 62; 28; 27; 36; 44; 6; 55; 20; 3; 10; 43; 25; 39; 41; 45; 15; 21;
     8; 18; 2; 61; 56; 14 |]

let rotl64 x n =
  if n = 0 then x
  else Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

let keccak_f (st : int64 array) =
  let c = Array.make 5 0L and d = Array.make 5 0L and b = Array.make 25 0L in
  for round = 0 to 23 do
    (* theta *)
    for x = 0 to 4 do
      c.(x) <-
        Int64.logxor st.(x)
          (Int64.logxor st.(x + 5)
             (Int64.logxor st.(x + 10) (Int64.logxor st.(x + 15) st.(x + 20))))
    done;
    for x = 0 to 4 do
      d.(x) <- Int64.logxor c.((x + 4) mod 5) (rotl64 c.((x + 1) mod 5) 1);
      for y = 0 to 4 do
        st.(x + (5 * y)) <- Int64.logxor st.(x + (5 * y)) d.(x)
      done
    done;
    (* rho + pi *)
    for x = 0 to 4 do
      for y = 0 to 4 do
        let i = x + (5 * y) in
        b.(y + (5 * (((2 * x) + (3 * y)) mod 5))) <- rotl64 st.(i) keccak_rot.(i)
      done
    done;
    (* chi *)
    for x = 0 to 4 do
      for y = 0 to 4 do
        let i = x + (5 * y) in
        st.(i) <-
          Int64.logxor b.(i)
            (Int64.logand (Int64.lognot b.(((x + 1) mod 5) + (5 * y)))
               b.(((x + 2) mod 5) + (5 * y)))
      done
    done;
    (* iota *)
    st.(0) <- Int64.logxor st.(0) keccak_rc.(round)
  done

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

(** Names of all precompiles, with their argument counts. *)
let signatures =
  [ ("sha256_compress", 2)   (* state_ptr(8w), block_ptr(16w) *)
  ; ("keccakf", 1)           (* state_ptr(25 dwords) *)
  ; ("ecdsa_verify", 4)      (* msg_ptr, msg_words, sig_ptr(8w), key_ptr(8w) -> 0/1 *)
  ; ("ed25519_verify", 4)    (* ditto *)
  ; ("bigint_mulmod", 4)     (* out_ptr(8w), a_ptr(8w), b_ptr(8w), mod_ptr(8w) *)
  ]

let read_words mem ptr n =
  List.init n (fun i -> mem.load32 (Int32.add ptr (Int32.of_int (4 * i))))

(* Simulated signature tag: SHA-256 digest of (separator :: msg ++ key). *)
let signature_tag ~separator mem ~msg_ptr ~msg_words ~key_ptr =
  let msg = read_words mem msg_ptr msg_words in
  let key = read_words mem key_ptr 8 in
  digest_words (separator :: (msg @ key))

let verify_sig ~separator mem args =
  let msg_ptr = Int64.to_int32 args.(0) in
  let msg_words = Int64.to_int args.(1) in
  let sig_ptr = Int64.to_int32 args.(2) in
  let key_ptr = Int64.to_int32 args.(3) in
  let tag = signature_tag ~separator mem ~msg_ptr ~msg_words ~key_ptr in
  let sigw = Array.of_list (read_words mem sig_ptr 8) in
  if Array.for_all2 (fun a b -> Int32.equal a b) tag sigw then 1L else 0L

(** Execute precompile [name] against guest memory.  Returns the result
    value for value-returning precompiles. *)
let run (name : string) (mem : mem) (args : int64 array) : int64 option =
  match name with
  | "sha256_compress" ->
    let state_ptr = Int64.to_int32 args.(0) and block_ptr = Int64.to_int32 args.(1) in
    let state = Array.of_list (read_words mem state_ptr 8) in
    let block = Array.of_list (read_words mem block_ptr 16) in
    sha256_compress_words state block;
    Array.iteri
      (fun i w -> mem.store32 (Int32.add state_ptr (Int32.of_int (4 * i))) w)
      state;
    None
  | "keccakf" ->
    let ptr = Int64.to_int32 args.(0) in
    let st = Array.init 25 (fun i -> load64 mem (Int32.add ptr (Int32.of_int (8 * i)))) in
    keccak_f st;
    Array.iteri (fun i v -> store64 mem (Int32.add ptr (Int32.of_int (8 * i))) v) st;
    None
  | "ecdsa_verify" -> Some (verify_sig ~separator:0x0ecd5a01l mem args)
  | "ed25519_verify" -> Some (verify_sig ~separator:0x0ed25519l mem args)
  | "bigint_mulmod" ->
    (* 256-bit (a * b) mod m over 8-word little-endian buffers.  Done via
       schoolbook multiply into 16 words then repeated subtraction-free
       Barrett-style reduction is overkill here: we reduce with simple
       long division by m. *)
    let out_ptr = Int64.to_int32 args.(0) in
    let rd p = read_words mem p 8 in
    let to_z words =
      (* words are LE int32; build an arbitrary-precision value as a pair
         list processed with int64 limbs (school arithmetic on 16-bit
         digits keeps everything in int range) *)
      List.concat_map
        (fun w ->
          let w = Int32.to_int w land 0xFFFF_FFFF in
          [ w land 0xFFFF; (w lsr 16) land 0xFFFF ])
        words
    in
    let a = to_z (rd (Int64.to_int32 args.(1))) in
    let b = to_z (rd (Int64.to_int32 args.(2))) in
    let m = to_z (rd (Int64.to_int32 args.(3))) in
    let mul a b =
      let la = List.length a and lb = List.length b in
      let res = Array.make (la + lb) 0 in
      List.iteri
        (fun i ai ->
          List.iteri
            (fun j bj ->
              let k = i + j in
              let v = res.(k) + (ai * bj) in
              res.(k) <- v land 0xFFFF;
              res.(k + 1) <- res.(k + 1) + (v lsr 16))
            b)
        a;
      (* propagate remaining carries *)
      for k = 0 to Array.length res - 2 do
        res.(k + 1) <- res.(k + 1) + (res.(k) lsr 16);
        res.(k) <- res.(k) land 0xFFFF
      done;
      Array.to_list res
    in
    let ge a b =
      (* compare big-endian-wise over equal length *)
      let n = max (List.length a) (List.length b) in
      let pad l = Array.init n (fun i -> Option.value ~default:0 (List.nth_opt l i)) in
      let a = pad a and b = pad b in
      let rec cmp i = if i < 0 then true else if a.(i) <> b.(i) then a.(i) > b.(i) else cmp (i - 1) in
      cmp (n - 1)
    in
    let sub a b =
      let n = List.length a in
      let pad l = Array.init n (fun i -> Option.value ~default:0 (List.nth_opt l i)) in
      let a = pad a and b = pad b in
      let borrow = ref 0 in
      Array.to_list
        (Array.init n (fun i ->
             let v = a.(i) - b.(i) - !borrow in
             if v < 0 then (borrow := 1; v + 0x10000) else (borrow := 0; v)))
    in
    let is_zero = List.for_all (( = ) 0) in
    (* shift left by [k] bits (binary), digit base 2^16 *)
    let shl_bits l k =
      let digit_shift = k / 16 and bit_shift = k mod 16 in
      let l = List.init digit_shift (fun _ -> 0) @ l @ [ 0 ] in
      let carry = ref 0 in
      List.map
        (fun d ->
          let v = (d lsl bit_shift) lor !carry in
          carry := v lsr 16;
          v land 0xFFFF)
        l
    in
    let bit_length l =
      let arr = Array.of_list l in
      let rec width n = if n = 0 then 0 else 1 + width (n lsr 1) in
      let rec go i =
        if i < 0 then 0
        else if arr.(i) = 0 then go (i - 1)
        else (i * 16) + width arr.(i)
      in
      go (Array.length arr - 1)
    in
    (* binary shift-subtract modular reduction: O(bits) compare/subtracts *)
    let p = ref (mul a b) in
    if not (is_zero m) then begin
      let bm = bit_length m in
      let continue_reducing = ref true in
      while !continue_reducing do
        let bp = bit_length !p in
        if bp < bm || (bp = bm && not (ge !p m)) then continue_reducing := false
        else begin
          let s = bp - bm in
          let shifted = shl_bits m s in
          if ge !p shifted then p := sub !p shifted
          else p := sub !p (shl_bits m (s - 1))
        end
      done
    end;
    let digits = Array.of_list !p in
    for i = 0 to 7 do
      let lo = if 2 * i < Array.length digits then digits.(2 * i) else 0 in
      let hi = if (2 * i) + 1 < Array.length digits then digits.((2 * i) + 1) else 0 in
      mem.store32
        (Int32.add out_ptr (Int32.of_int (4 * i)))
        (Int32.of_int (lo lor (hi lsl 16)))
    done;
    None
  | _ -> invalid_arg (Printf.sprintf "Extern.run: unknown precompile %S" name)
