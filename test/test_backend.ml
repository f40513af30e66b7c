(** Backend registry and cross-ISA conformance tests: registry lookup
    errors name the registered set, all backends agree on canonical
    exit values, the zk-native backend has no spill path by
    construction, and both cost configs fail loudly on unpriced
    precompiles. *)

open Zkopt_ir
open Zkopt_core
module B = Builder
module Backend = Zkopt_backend.Backend
module Registry = Zkopt_backend.Registry

let () = Zkopt_valida.Vbackend.ensure ()

(* ---- registry ------------------------------------------------------- *)

let test_registry_contents () =
  let names = Registry.names () in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
    [ "risc0"; "sp1"; "valida" ];
  (* rv32 family shares one codegen schema; valida has its own *)
  let schema n = (Registry.find n).Backend.schema in
  Alcotest.(check string) "rv32 family shares a schema" (schema "risc0")
    (schema "sp1");
  Alcotest.(check bool) "valida schema is distinct" true
    (not (String.equal (schema "valida") (schema "risc0")));
  Alcotest.(check bool) "valida is zk-native" true
    (Registry.find "valida").Backend.zk_native;
  Alcotest.(check bool) "risc0 is not zk-native" false
    (Registry.find "risc0").Backend.zk_native

let test_registry_unknown_lists_options () =
  match Registry.find "no-such-vm" with
  | _ -> Alcotest.fail "lookup of unknown backend must raise"
  | exception Invalid_argument msg ->
    let contains sub =
      let n = String.length sub and m = String.length msg in
      let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
      go 0
    in
    List.iter
      (fun n ->
        Alcotest.(check bool)
          (Printf.sprintf "error mentions %s" n)
          true (contains n))
      [ "no-such-vm"; "risc0"; "sp1"; "valida" ]

(* ---- exit-value conformance ----------------------------------------- *)

let programs =
  [
    ( "collatz",
      fun () ->
        let m = Modul.create () in
        ignore
          (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
               let n = B.var b Ty.I32 (B.imm 27) in
               let steps = B.var b Ty.I32 (B.imm 0) in
               B.while_ b
                 (fun () -> B.icmp b Instr.Ne (Value.Reg n) (B.imm 1))
                 (fun () ->
                   let odd = B.and_ b (Value.Reg n) (B.imm 1) in
                   B.if_ b
                     (B.icmp b Instr.Ne odd (B.imm 0))
                     ~then_:(fun () ->
                       B.set b Ty.I32 n
                         (B.add b
                            (B.mul b (Value.Reg n) (B.imm 3))
                            (B.imm 1)))
                     ~else_:(fun () ->
                       B.set b Ty.I32 n (B.udiv b (Value.Reg n) (B.imm 2)))
                     ();
                   B.set b Ty.I32 steps (B.add b (Value.Reg steps) (B.imm 1)));
               B.ret b (Some (Value.Reg steps))));
        m );
    ( "i64-mix",
      fun () ->
        let m = Modul.create () in
        ignore
          (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
               let s = B.var b Ty.I64 (B.imm 0x9E3779B9) in
               B.for_ b ~from:(B.imm 0) ~bound:(B.imm 500) (fun i ->
                   let w = B.sext b i in
                   let p =
                     B.mul ~ty:Ty.I64 b (Value.Reg s) (B.imm 0x2545F4914F6CDD1D)
                   in
                   B.set b Ty.I64 s (B.xor ~ty:Ty.I64 b p w));
               B.ret b (Some (B.trunc b (Value.Reg s)))));
        m );
  ]

let test_exit_conformance () =
  List.iter
    (fun (name, build) ->
      List.iter
        (fun profile ->
          let m = Measure.prepare_ir ~build profile in
          let exits =
            List.map
              (fun (b : Backend.t) ->
                let c = b.Backend.compile m in
                let r = c.Backend.measure ~vm:b.Backend.name () in
                (match r.Backend.accounting with
                | Ok () -> ()
                | Error e ->
                  Alcotest.failf "%s/%s accounting: %s" name b.Backend.name e);
                r.Backend.zk.Measure.exit_value)
              (Registry.all ())
          in
          match exits with
          | e0 :: rest ->
            List.iter
              (fun e ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s/%s exits agree" name
                     (Profile.name profile))
                  true (Int64.equal e e0))
              rest
          | [] -> Alcotest.fail "no backends registered")
        [ Profile.Baseline; Profile.Level Zkopt_passes.Catalog.O3 ])
    programs

(* ---- the spill path vanishes on the zk-native ISA -------------------- *)

let test_valida_never_spills () =
  (* a register-pressure program that makes the RV32 allocator spill;
     the frame-machine backend reports no spills because the concept
     does not exist in its codegen *)
  let build () =
    let m = Modul.create () in
    ignore
      (B.define m "main" ~params:[] ~ret:Ty.I32 (fun b _ ->
           let vs =
             List.init 20 (fun k ->
                 let v = B.var b Ty.I64 (B.imm (k * 7 + 1)) in
                 v)
           in
           B.for_ b ~from:(B.imm 0) ~bound:(B.imm 50) (fun i ->
               let w = B.sext b i in
               List.iter
                 (fun v ->
                   B.set b Ty.I64 v
                     (B.add ~ty:Ty.I64 b (Value.Reg v)
                        (B.xor ~ty:Ty.I64 b w (Value.Reg v))))
                 vs);
           let sum =
             List.fold_left
               (fun acc v -> B.add ~ty:Ty.I64 b acc (Value.Reg v))
               (B.imm 0) vs
           in
           B.ret b (Some (B.trunc b sum))));
    m
  in
  let m = Measure.prepare_ir ~build Profile.Baseline in
  let spill_count name =
    let b = Registry.find name in
    let c = b.Backend.compile m in
    List.fold_left (fun a (_, n) -> a + n) 0 c.Backend.spills
  in
  Alcotest.(check bool) "rv32 spills under pressure" true
    (spill_count "risc0" > 0);
  Alcotest.(check int) "valida has no spill path" 0 (spill_count "valida")

(* ---- precompile pricing fails loudly -------------------------------- *)

let test_unpriced_precompile_raises () =
  (match
     Zkopt_zkvm.Config.precompile_cost Zkopt_zkvm.Config.risc0 "blake3"
   with
  | _ -> Alcotest.fail "rv32 config must raise on an unpriced precompile"
  | exception Invalid_argument _ -> ());
  match
    Zkopt_valida.Vconfig.precompile_cost Zkopt_valida.Vconfig.valida "blake3"
  with
  | _ -> Alcotest.fail "valida config must raise on an unpriced precompile"
  | exception Invalid_argument _ -> ()

(* ---- the measurement memo of cached artifacts ------------------------ *)

(* factorial's RV32 artifact through a fresh compile cache, and a lookup
   that returns the same cached artifact again *)
let cached_factorial () =
  let w = Zkopt_workloads.Workload.find "factorial" in
  let build () =
    w.Zkopt_workloads.Workload.build Zkopt_workloads.Workload.Quick
  in
  let m = Measure.prepare_ir ~build Profile.Baseline in
  let cache = Zkopt_exec.Cache.create () in
  let lookup () =
    Backend.compile_cached ~cache (Registry.find "risc0")
      ~fp:(Zkopt_exec.Fingerprint.of_modul m) (Lazy.from_val m)
  in
  (lookup (), lookup)

let test_memo_keys_on_exact_fuel () =
  let c, lookup = cached_factorial () in
  let cpu = Option.get c.Backend.measure_cpu in
  let zk = c.Backend.measure ~vm:"risc0" () and cycles = cpu () in
  let again = lookup () in
  let cpu_again = Option.get again.Backend.measure_cpu in
  Alcotest.(check bool) "an equal call is served from the memo" true
    (again.Backend.measure ~vm:"risc0" () == zk && cpu_again () == cycles);
  (* the key is the resolved fuel: naming the default is an equal call *)
  let fuel = Zkopt_riscv.Emulator.default_fuel in
  Alcotest.(check bool) "measure at the default fuel is served" true
    (again.Backend.measure ~vm:"risc0" ~fuel () == zk);
  Alcotest.(check bool) "measure_cpu at the default fuel is served" true
    (cpu_again ~fuel () == cycles);
  (* a starved call has another key: it runs, and runs out *)
  let starves name run =
    match run () with
    | _ -> Alcotest.failf "%s at fuel 100 must run out of fuel" name
    | exception Zkopt_riscv.Emulator.Out_of_fuel _ -> ()
  in
  starves "measure" (fun () ->
      ignore (again.Backend.measure ~vm:"risc0" ~fuel:100 ()));
  starves "measure_cpu" (fun () -> ignore (cpu_again ~fuel:100 ()))

let test_memo_never_serves_a_sink () =
  let c, _ = cached_factorial () in
  let cpu = Option.get c.Backend.measure_cpu in
  let plain =
    List.map (fun vm -> c.Backend.measure ~vm ()) [ "risc0"; "sp1" ]
  in
  let cpu_cycles = (cpu ()).Measure.cpu_cycles in
  List.iter
    (fun (r : Backend.measurement) ->
      let z = r.Backend.zk in
      let user = ref 0 and paging = ref 0 in
      let sink =
        Zkopt_zkvm.Machine.sink
          ~on_retires:
            (Zkopt_zkvm.Machine.iter_retires (fun ~pc:_ _ ~cost ->
                 user := !user + cost))
          ~on_precompile:(fun ~pc:_ ~name:_ ~cost -> user := !user + cost)
          ~on_page_in:(fun ~pc:_ ~cost -> paging := !paging + cost)
          ~on_page_out:(fun ~pc:_ ~cost -> paging := !paging + cost)
          ()
      in
      let vm = z.Measure.vm in
      let seen = c.Backend.measure ~vm ~sink () in
      Alcotest.(check bool) (vm ^ " pages") true (z.Measure.paging_cycles > 0);
      Alcotest.(check int) (vm ^ ": retire + precompile costs")
        (z.Measure.cycles - z.Measure.paging_cycles) !user;
      Alcotest.(check int) (vm ^ ": page-in + page-out costs")
        z.Measure.paging_cycles !paging;
      Alcotest.(check bool) (vm ^ ": same metrics as the kept run") true
        (seen.Backend.zk = z))
    plain;
  let total = ref 0.0 in
  let sink =
    Zkopt_zkvm.Machine.sink
      ~on_cpu_retire:(fun ~pc:_ _ ~cost -> total := !total +. cost)
      ()
  in
  ignore (cpu ~sink ());
  Alcotest.(check int64) "on_cpu_retire costs sum to cpu_cycles"
    (Int64.bits_of_float cpu_cycles) (Int64.bits_of_float !total)

let tests =
  [
    Alcotest.test_case "registry contents and schemas" `Quick
      test_registry_contents;
    Alcotest.test_case "unknown backend error lists options" `Quick
      test_registry_unknown_lists_options;
    Alcotest.test_case "exit values agree across backends" `Quick
      test_exit_conformance;
    Alcotest.test_case "no spill path on the zk-native ISA" `Quick
      test_valida_never_spills;
    Alcotest.test_case "unpriced precompile raises" `Quick
      test_unpriced_precompile_raises;
    Alcotest.test_case "memo keys on the exact fuel" `Quick
      test_memo_keys_on_exact_fuel;
    Alcotest.test_case "memo never serves a sinked call" `Quick
      test_memo_never_serves_a_sink;
  ]
