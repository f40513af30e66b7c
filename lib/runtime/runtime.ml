(** Guest runtime library, written in the IR itself, and its linker.

    The code generator lowers 64-bit division/remainder and variable
    64-bit shifts to calls to these functions (mirroring compiler-rt's
    __divdi3 family), loop-idiom turns store loops into [memset_w] calls,
    and the workloads call the rest by name (word copies, the soft
    SHA-256 compression for the benchmarks that avoid precompiles, and
    softfloat).  {!link} adds to a module only the members it can reach,
    the way a static linker pulls archive members, so the pass pipeline
    never optimizes runtime code that the final globaldce would delete.

    Implementation constraint: these bodies may use 64-bit IR operations
    only where the selector expands them inline (add/sub/mul/logic and
    *constant-amount* shifts); variable shifts and division would recurse
    into this library. *)

open Zkopt_ir
module B = Builder

let i64 = Ty.I64
let i32 = Ty.I32

(* -- 64-bit shifts ------------------------------------------------- *)

(* Decompose an I64 value into 32-bit halves (constant shifts only). *)
let halves b x =
  let lo = B.trunc b x in
  let hi = B.trunc b (B.lshr ~ty:i64 b x (B.imm 32)) in
  (lo, hi)

let join b ~lo ~hi =
  let lo64 = B.zext b lo in
  let hi64 = B.shl ~ty:i64 b (B.zext b hi) (B.imm 32) in
  B.or_ ~ty:i64 b hi64 lo64

let define_shift m name ~emit_cases =
  ignore
    (B.define m name ~params:[ i64; i64 ] ~ret:i64 (fun b ps ->
         let x = List.nth ps 0 and n64 = List.nth ps 1 in
         let n = B.and_ b (B.trunc b n64) (B.imm 63) in
         let lo, hi = halves b x in
         let res = B.var b i64 x in
         emit_cases b ~x ~n ~lo ~hi ~res;
         B.ret b (Some (Value.Reg res))))

let ashldi3 m =
  define_shift m "__ashldi3" ~emit_cases:(fun b ~x ~n ~lo ~hi ~res ->
      ignore x;
      let is_zero = B.icmp b Instr.Eq n (B.imm 0) in
      B.if_ b is_zero
        ~then_:(fun () -> ())
        ~else_:(fun () ->
          let lt32 = B.icmp b Instr.Ult n (B.imm 32) in
          B.if_ b lt32
            ~then_:(fun () ->
              let inv = B.sub b (B.imm 32) n in
              let nh = B.or_ b (B.shl b hi n) (B.lshr b lo inv) in
              let nl = B.shl b lo n in
              B.set b i64 res (join b ~lo:nl ~hi:nh))
            ~else_:(fun () ->
              let n' = B.sub b n (B.imm 32) in
              let nh = B.shl b lo n' in
              B.set b i64 res (join b ~lo:(B.imm 0) ~hi:nh))
            ())
        ())

let lshrdi3 m =
  define_shift m "__lshrdi3" ~emit_cases:(fun b ~x ~n ~lo ~hi ~res ->
      ignore x;
      let is_zero = B.icmp b Instr.Eq n (B.imm 0) in
      B.if_ b is_zero
        ~then_:(fun () -> ())
        ~else_:(fun () ->
          let lt32 = B.icmp b Instr.Ult n (B.imm 32) in
          B.if_ b lt32
            ~then_:(fun () ->
              let inv = B.sub b (B.imm 32) n in
              let nl = B.or_ b (B.lshr b lo n) (B.shl b hi inv) in
              let nh = B.lshr b hi n in
              B.set b i64 res (join b ~lo:nl ~hi:nh))
            ~else_:(fun () ->
              let n' = B.sub b n (B.imm 32) in
              let nl = B.lshr b hi n' in
              B.set b i64 res (join b ~lo:nl ~hi:(B.imm 0)))
            ())
        ())

let ashrdi3 m =
  define_shift m "__ashrdi3" ~emit_cases:(fun b ~x ~n ~lo ~hi ~res ->
      ignore x;
      let is_zero = B.icmp b Instr.Eq n (B.imm 0) in
      B.if_ b is_zero
        ~then_:(fun () -> ())
        ~else_:(fun () ->
          let lt32 = B.icmp b Instr.Ult n (B.imm 32) in
          B.if_ b lt32
            ~then_:(fun () ->
              let inv = B.sub b (B.imm 32) n in
              let nl = B.or_ b (B.lshr b lo n) (B.shl b hi inv) in
              let nh = B.ashr b hi n in
              B.set b i64 res (join b ~lo:nl ~hi:nh))
            ~else_:(fun () ->
              let n' = B.sub b n (B.imm 32) in
              let nl = B.ashr b hi n' in
              let nh = B.ashr b hi (B.imm 31) in
              B.set b i64 res (join b ~lo:nl ~hi:nh))
            ())
        ())

(* -- 64-bit division ----------------------------------------------- *)

(* Restoring shift-subtract division; constant shifts only so the body
   never calls back into the runtime. *)
let emit_udivmod b ~num ~den ~want_rem =
  let q = B.var b i64 (B.imm 0) in
  let r = B.var b i64 (B.imm 0) in
  let rem = B.var b i64 num in
  B.for_ b ~from:(B.imm 0) ~bound:(B.imm 64) (fun _ ->
      let top = B.lshr ~ty:i64 b (Value.Reg rem) (B.imm 63) in
      B.set b i64 r (B.or_ ~ty:i64 b (B.shl ~ty:i64 b (Value.Reg r) (B.imm 1)) top);
      B.set b i64 rem (B.shl ~ty:i64 b (Value.Reg rem) (B.imm 1));
      B.set b i64 q (B.shl ~ty:i64 b (Value.Reg q) (B.imm 1));
      let ge = B.icmp ~ty:i64 b Instr.Uge (Value.Reg r) den in
      B.if_ b ge
        ~then_:(fun () ->
          B.set b i64 r (B.sub ~ty:i64 b (Value.Reg r) den);
          B.set b i64 q (B.or_ ~ty:i64 b (Value.Reg q) (B.imm 1)))
        ());
  if want_rem then Value.Reg r else Value.Reg q

let udivdi3 m =
  ignore
    (B.define m "__udivdi3" ~params:[ i64; i64 ] ~ret:i64 (fun b ps ->
         let a = List.nth ps 0 and d = List.nth ps 1 in
         let dz = B.icmp ~ty:i64 b Instr.Eq d (B.imm 0) in
         B.if_ b dz ~then_:(fun () -> B.ret b (Some (B.imm64 (-1L)))) ();
         B.ret b (Some (emit_udivmod b ~num:a ~den:d ~want_rem:false))))

let umoddi3 m =
  ignore
    (B.define m "__umoddi3" ~params:[ i64; i64 ] ~ret:i64 (fun b ps ->
         let a = List.nth ps 0 and d = List.nth ps 1 in
         let dz = B.icmp ~ty:i64 b Instr.Eq d (B.imm 0) in
         B.if_ b dz ~then_:(fun () -> B.ret b (Some a)) ();
         B.ret b (Some (emit_udivmod b ~num:a ~den:d ~want_rem:true))))

let abs64 b v =
  let neg = B.icmp ~ty:i64 b Instr.Slt v (B.imm 0) in
  let negated = B.sub ~ty:i64 b (B.imm 0) v in
  (B.select ~ty:i64 b neg negated v, neg)

let divdi3 m =
  ignore
    (B.define m "__divdi3" ~params:[ i64; i64 ] ~ret:i64 (fun b ps ->
         let a = List.nth ps 0 and d = List.nth ps 1 in
         let dz = B.icmp ~ty:i64 b Instr.Eq d (B.imm 0) in
         B.if_ b dz ~then_:(fun () -> B.ret b (Some (B.imm64 (-1L)))) ();
         let au, aneg = abs64 b a in
         let du, dneg = abs64 b d in
         let qu = B.callv b "__udivdi3" [ au; du ] in
         let sign = B.xor b aneg dneg in
         let qneg = B.sub ~ty:i64 b (B.imm 0) qu in
         B.ret b (Some (B.select ~ty:i64 b sign qneg qu))))

let moddi3 m =
  ignore
    (B.define m "__moddi3" ~params:[ i64; i64 ] ~ret:i64 (fun b ps ->
         let a = List.nth ps 0 and d = List.nth ps 1 in
         let dz = B.icmp ~ty:i64 b Instr.Eq d (B.imm 0) in
         B.if_ b dz ~then_:(fun () -> B.ret b (Some a)) ();
         let au, aneg = abs64 b a in
         let du, _ = abs64 b d in
         let ru = B.callv b "__umoddi3" [ au; du ] in
         let rneg = B.sub ~ty:i64 b (B.imm 0) ru in
         B.ret b (Some (B.select ~ty:i64 b aneg rneg ru))))

(* -- word memset/memcpy (loop-idiom targets) ------------------------ *)

let memset_w m =
  ignore
    (B.define m "memset_w" ~params:[ Ty.Ptr; i32; i32 ] (fun b ps ->
         let dst = List.nth ps 0 and v = List.nth ps 1 and n = List.nth ps 2 in
         B.for_ b ~from:(B.imm 0) ~bound:n (fun i ->
             B.store b ~addr:(B.addr b dst ~index:i) v);
         B.ret b None))

let memcpy_w m =
  ignore
    (B.define m "memcpy_w" ~params:[ Ty.Ptr; Ty.Ptr; i32 ] (fun b ps ->
         let dst = List.nth ps 0 and src = List.nth ps 1 and n = List.nth ps 2 in
         B.for_ b ~from:(B.imm 0) ~bound:n (fun i ->
             let v = B.load b (B.addr b src ~index:i) in
             B.store b ~addr:(B.addr b dst ~index:i) v);
         B.ret b None))

(* -- soft SHA-256 compression (no precompile) ------------------------ *)

(* The round constants.  {!link} adds them whenever the module has
   neither the table nor the function, linked or not, so that the data
   layout does not depend on which members a module reaches. *)
let sha256_k m = ignore (B.global_words m "__sha256_k" Extern.sha256_k)

let sha256_compress_soft m =
  let k_table = Value.Glob "__sha256_k" in
  ignore
    (B.define m "sha256_compress_soft" ~params:[ Ty.Ptr; Ty.Ptr ] (fun b ps ->
         let state = List.nth ps 0 and block = List.nth ps 1 in
         let w = B.alloca b (64 * 4) in
         let rotr x n =
           B.or_ b (B.lshr b x (B.imm n)) (B.shl b x (B.imm (32 - n)))
         in
         B.for_ b ~from:(B.imm 0) ~bound:(B.imm 16) (fun t ->
             let v = B.load b (B.addr b block ~index:t) in
             B.store b ~addr:(B.addr b w ~index:t) v);
         B.for_ b ~from:(B.imm 16) ~bound:(B.imm 64) (fun t ->
             let at k = B.load b (B.addr b w ~index:(B.add b t (B.imm (-k)))) in
             let w15 = at 15 and w2 = at 2 and w16 = at 16 and w7 = at 7 in
             let s0 = B.xor b (rotr w15 7) (B.xor b (rotr w15 18) (B.lshr b w15 (B.imm 3))) in
             let s1 = B.xor b (rotr w2 17) (B.xor b (rotr w2 19) (B.lshr b w2 (B.imm 10))) in
             let v = B.add b (B.add b w16 s0) (B.add b w7 s1) in
             B.store b ~addr:(B.addr b w ~index:t) v);
         let ld p i = B.load b (B.addr b p ~index:(B.imm i)) in
         let a = B.var b i32 (ld state 0) and bb = B.var b i32 (ld state 1) in
         let c = B.var b i32 (ld state 2) and d = B.var b i32 (ld state 3) in
         let e = B.var b i32 (ld state 4) and f = B.var b i32 (ld state 5) in
         let g = B.var b i32 (ld state 6) and h = B.var b i32 (ld state 7) in
         let v r = Value.Reg r in
         B.for_ b ~from:(B.imm 0) ~bound:(B.imm 64) (fun t ->
             let s1 = B.xor b (rotr (v e) 6) (B.xor b (rotr (v e) 11) (rotr (v e) 25)) in
             let not_e = B.xor b (v e) (B.imm (-1)) in
             let ch = B.xor b (B.and_ b (v e) (v f)) (B.and_ b not_e (v g)) in
             let kt = B.load b (B.addr b k_table ~index:t) in
             let wt = B.load b (B.addr b w ~index:t) in
             let t1 = B.add b (B.add b (v h) s1) (B.add b ch (B.add b kt wt)) in
             let s0 = B.xor b (rotr (v a) 2) (B.xor b (rotr (v a) 13) (rotr (v a) 22)) in
             let maj =
               B.xor b (B.and_ b (v a) (v bb))
                 (B.xor b (B.and_ b (v a) (v c)) (B.and_ b (v bb) (v c)))
             in
             let t2 = B.add b s0 maj in
             B.set b i32 h (v g);
             B.set b i32 g (v f);
             B.set b i32 f (v e);
             B.set b i32 e (B.add b (v d) t1);
             B.set b i32 d (v c);
             B.set b i32 c (v bb);
             B.set b i32 bb (v a);
             B.set b i32 a (B.add b t1 t2));
         let upd i r =
           let cur = ld state i in
           B.store b ~addr:(B.addr b state ~index:(B.imm i)) (B.add b cur (v r))
         in
         upd 0 a; upd 1 bb; upd 2 c; upd 3 d; upd 4 e; upd 5 f; upd 6 g; upd 7 h;
         B.ret b None))

(* -- softfloat (simplified binary64: normals and zero only) ---------- *)

(* Used by the FP-emulation-cost experiments.  NaN/Inf/subnormals are out
   of scope (DESIGN.md); the property tests compare against host floats
   on normal values only. *)
let unpack b x =
  (* sign (I32 0/1), exponent (I32), mantissa with implicit bit (I64) *)
  let sign = B.trunc b (B.lshr ~ty:i64 b x (B.imm 63)) in
  let expo = B.and_ b (B.trunc b (B.lshr ~ty:i64 b x (B.imm 52))) (B.imm 0x7FF) in
  let mant = B.and_ ~ty:i64 b x (B.imm64 0xF_FFFF_FFFF_FFFFL) in
  let is_zero = B.icmp b Instr.Eq expo (B.imm 0) in
  let with_implicit = B.or_ ~ty:i64 b mant (B.imm64 0x10_0000_0000_0000L) in
  let mant = B.select ~ty:i64 b is_zero (B.imm 0) with_implicit in
  (sign, expo, mant)

let pack b ~sign ~expo ~mant =
  (* mant has the implicit bit at position 52 *)
  let m52 = B.and_ ~ty:i64 b mant (B.imm64 0xF_FFFF_FFFF_FFFFL) in
  let e = B.shl ~ty:i64 b (B.zext b expo) (B.imm 52) in
  let s = B.shl ~ty:i64 b (B.zext b sign) (B.imm 63) in
  B.or_ ~ty:i64 b s (B.or_ ~ty:i64 b e m52)

let f64_mul m =
  ignore
    (B.define m "f64_mul" ~params:[ i64; i64 ] ~ret:i64 (fun b ps ->
         let x = List.nth ps 0 and y = List.nth ps 1 in
         let sx, ex, mx = unpack b x in
         let sy, ey, my = unpack b y in
         let sign = B.xor b sx sy in
         (* zero operands *)
         let xz = B.icmp ~ty:i64 b Instr.Eq mx (B.imm 0) in
         let yz = B.icmp ~ty:i64 b Instr.Eq my (B.imm 0) in
         let any_zero = B.or_ b xz yz in
         B.if_ b any_zero
           ~then_:(fun () ->
             B.ret b (Some (pack b ~sign ~expo:(B.imm 0) ~mant:(B.imm 0))))
           ();
         (* 53x53 -> keep top: (mx * my) >> 52, using the high parts *)
         let mx_hi = B.lshr ~ty:i64 b mx (B.imm 26) in
         let my_hi = B.lshr ~ty:i64 b my (B.imm 26) in
         let prod = B.mul ~ty:i64 b mx_hi my_hi in  (* ~2^54 scale *)
         let e = B.add b (B.add b ex ey) (B.imm (-1023)) in
         let expo = B.var b i32 e in
         let mant = B.var b i64 prod in
         (* normalize: product of two [2^26,2^27) values is in [2^52,2^54) *)
         let too_big = B.icmp ~ty:i64 b Instr.Uge (Value.Reg mant) (B.imm64 0x20_0000_0000_0000L) in
         B.if_ b too_big
           ~then_:(fun () ->
             B.set b i64 mant (B.lshr ~ty:i64 b (Value.Reg mant) (B.imm 1));
             B.set b i32 expo (B.add b (Value.Reg expo) (B.imm 1)))
           ();
         B.ret b (Some (pack b ~sign ~expo:(Value.Reg expo) ~mant:(Value.Reg mant)))))

let f64_add m =
  ignore
    (B.define m "f64_add" ~params:[ i64; i64 ] ~ret:i64 (fun b ps ->
         let x = List.nth ps 0 and y = List.nth ps 1 in
         let sx, ex, mx = unpack b x in
         let sy, ey, my = unpack b y in
         (* order so |x| >= |y| by exponent (mantissa tie ignored: small
            rounding differences are acceptable for the cost study) *)
         let swap = B.icmp b Instr.Slt ex ey in
         let ea = B.select b swap ey ex and eb = B.select b swap ex ey in
         let ma = B.select ~ty:i64 b swap my mx and mb = B.select ~ty:i64 b swap mx my in
         let sa = B.select b swap sy sx and sb = B.select b swap sx sy in
         let diff = B.sub b ea eb in
         let big = B.icmp b Instr.Sgt diff (B.imm 55) in
         B.if_ b big
           ~then_:(fun () -> B.ret b (Some (pack b ~sign:sa ~expo:ea ~mant:ma)))
           ();
         let mb_shifted = B.callv b "__lshrdi3" [ mb; B.zext b diff ] in
         let same_sign = B.icmp b Instr.Eq sa sb in
         let expo = B.var b i32 ea in
         let mant = B.var b i64 (B.imm 0) in
         let sign = B.var b i32 sa in
         B.if_ b same_sign
           ~then_:(fun () ->
             B.set b i64 mant (B.add ~ty:i64 b ma mb_shifted);
             let carry = B.icmp ~ty:i64 b Instr.Uge (Value.Reg mant) (B.imm64 0x20_0000_0000_0000L) in
             B.if_ b carry
               ~then_:(fun () ->
                 B.set b i64 mant (B.lshr ~ty:i64 b (Value.Reg mant) (B.imm 1));
                 B.set b i32 expo (B.add b (Value.Reg expo) (B.imm 1)))
               ())
           ~else_:(fun () ->
             B.set b i64 mant (B.sub ~ty:i64 b ma mb_shifted);
             let zero = B.icmp ~ty:i64 b Instr.Eq (Value.Reg mant) (B.imm 0) in
             B.if_ b zero
               ~then_:(fun () ->
                 B.ret b (Some (B.imm64 0L)))
               ();
             (* renormalize: shift left until the implicit bit returns *)
             B.while_ b
               (fun () ->
                 B.icmp ~ty:i64 b Instr.Ult (Value.Reg mant) (B.imm64 0x10_0000_0000_0000L))
               (fun () ->
                 B.set b i64 mant (B.shl ~ty:i64 b (Value.Reg mant) (B.imm 1));
                 B.set b i32 expo (B.add b (Value.Reg expo) (B.imm (-1))));
             ())
           ();
         B.ret b
           (Some (pack b ~sign:(Value.Reg sign) ~expo:(Value.Reg expo) ~mant:(Value.Reg mant)))))

(* -- the linker ------------------------------------------------------ *)

(** One runtime function: its name, the runtime functions its body calls
    and its definer, which adds it to a module. *)
type member = { name : string; calls : string list; define : Modul.t -> unit }

(** Every runtime function, in the order {!link} defines them. *)
let members =
  [ { name = "__ashldi3"; calls = []; define = ashldi3 };
    { name = "__lshrdi3"; calls = []; define = lshrdi3 };
    { name = "__ashrdi3"; calls = []; define = ashrdi3 };
    { name = "__udivdi3"; calls = []; define = udivdi3 };
    { name = "__umoddi3"; calls = []; define = umoddi3 };
    { name = "__divdi3"; calls = [ "__udivdi3" ]; define = divdi3 };
    { name = "__moddi3"; calls = [ "__umoddi3" ]; define = moddi3 };
    { name = "memset_w"; calls = []; define = memset_w };
    { name = "memcpy_w"; calls = []; define = memcpy_w };
    { name = "sha256_compress_soft"; calls = []; define = sha256_compress_soft };
    { name = "f64_mul"; calls = []; define = f64_mul };
    { name = "f64_add"; calls = [ "__lshrdi3" ]; define = f64_add } ]

(** The member named [name], if the runtime has one. *)
let member name = List.find_opt (fun e -> String.equal e.name name) members

(** [name] and the runtime functions its member calls, transitively. *)
let closure name =
  let rec go acc name =
    if List.mem name acc then acc
    else
      match member name with
      | Some e -> List.fold_left go (name :: acc) e.calls
      | None -> name :: acc
  in
  List.rev (go [] name)

(** The runtime function the code generator calls for a 64-bit [op]:
    for every division and remainder, and for a shift whose amount is not
    an immediate (a shift by an immediate is lowered inline).  Its
    {!closure} adds the unsigned helper a signed division calls. *)
let helper : Instr.binop -> string option = function
  | Instr.Div -> Some "__divdi3"
  | Rem -> Some "__moddi3"
  | Udiv -> Some "__udivdi3"
  | Urem -> Some "__umoddi3"
  | Shl -> Some "__ashldi3"
  | Lshr -> Some "__lshrdi3"
  | Ashr -> Some "__ashrdi3"
  | Add | Sub | Mul | Mulhu | And | Or | Xor -> None

(** Runtime functions are ABI entry points: the backend materializes
    calls to them during lowering and loop-idiom creates [memset_w]
    calls, so interprocedural passes must not rewrite their signatures. *)
let mark_external (m : Modul.t) =
  List.iter
    (fun e ->
      match Modul.find_func m e.name with
      | Some f -> f.Func.attrs.Func.internal <- false
      | None -> ())
    members

(** Add to [m] the runtime functions it can reach: the closure over the
    members' own calls of every name a function of [m] calls, the
    {!helper} of every 64-bit division, remainder and shift in [m],
    whatever the shift's amount, and [memset_w], which loop-idiom calls
    and acts only when it is present.

    A member left out here is one the final globaldce would delete,
    because passes keep to three rules.  No pass adds a call to a
    runtime function other than [memset_w].  No pass adds a 64-bit
    division or remainder: div-rem-pairs and peephole only rewrite or
    remove the ones a module has.  The only 64-bit shifts a pass adds
    are peephole's strength reductions of a multiply or unsigned divide
    by 2^k, by the immediate k < 64, which the code generator lowers
    inline; and no pass turns the amount of a 64-bit shift into a
    register (consthoist hoists immediates only out of 32-bit
    operations).  Taking the helper of every shift keeps the link exact
    should a pass start to.  The members' own bodies use 64-bit
    operations only where the selector expands them inline, so their
    [calls] are all they need.

    The final module is the whole library's except where a pass picks
    among functions: loop-extract outlines the first extractable loop in
    module order, so a pipeline running it twice may outline a live loop
    where, beside the whole library, it outlined a dead runtime one.
    Names already present are skipped, so workloads may provide
    specialized versions. *)
let link (m : Modul.t) =
  let wanted = Hashtbl.create 16 in
  let want name =
    if not (Hashtbl.mem wanted name) then
      List.iter (fun n -> Hashtbl.replace wanted n ()) (closure name)
  in
  want "memset_w";
  List.iter
    (fun f ->
      Func.iter_instrs f (fun _ i ->
          match i with
          | Instr.Call { callee; _ } -> want callee
          | Instr.Bin { ty = Ty.I64; op; _ } -> Option.iter want (helper op)
          | _ -> ()))
    m.Modul.funcs;
  let have name = Modul.find_func m name <> None in
  if not (have "sha256_compress_soft") && Modul.find_global m "__sha256_k" = None
  then sha256_k m;
  List.iter
    (fun e -> if Hashtbl.mem wanted e.name && not (have e.name) then e.define m)
    members;
  mark_external m
