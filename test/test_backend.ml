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
module Faultplan = Zkopt_harness.Faultplan
module Machine = Zkopt_zkvm.Machine
module Vexec = Zkopt_valida.Vexec

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

(* A backend that is not zk-native gives every artifact a CPU model and a
   zk-native one gives none: compiled, as the stand-in a cache returns for
   an artifact it does not hold, and as the artifact a cache holds in
   memory. *)
let test_cpu_model_iff_not_zk_native () =
  let m = Measure.prepare_ir ~build:Test_exec.tiny_module Profile.Baseline in
  let fp = Zkopt_exec.Fingerprint.of_modul m in
  List.iter
    (fun (b : Backend.t) ->
      let cache = Zkopt_exec.Cache.create () in
      let lookup () = Backend.compile_cached ~cache b ~fp (Lazy.from_val m) in
      let stand_in = lookup () in
      (* its static data compile the artifact into the cache *)
      ignore (stand_in.Backend.static_instrs ());
      Alcotest.(check bool) (b.Backend.name ^ ": resident after first use") true
        (Zkopt_exec.Cache.mem cache ~digest:(fp ^ "+" ^ b.Backend.schema));
      List.iter
        (fun (what, (c : Backend.compiled)) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s, %s: CPU model iff not zk-native" b.Backend.name what)
            (not b.Backend.zk_native) (Option.is_some c.Backend.measure_cpu))
        [ ("compiled", b.Backend.compile m); ("stand-in", stand_in);
          ("in memory", lookup ()) ])
    (Registry.all ())

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
    List.fold_left (fun a (_, n) -> a + n) 0 (c.Backend.spills ())
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

(* factorial, prepared at the baseline *)
let factorial () =
  let w = Zkopt_workloads.Workload.find "factorial" in
  let build () =
    w.Zkopt_workloads.Workload.build Zkopt_workloads.Workload.Quick
  in
  Measure.prepare_ir ~build Profile.Baseline

(* factorial's RV32 artifact through a fresh compile cache, and a lookup
   that returns the same cached artifact again *)
let cached_factorial () =
  let m = factorial () in
  let cache = Zkopt_exec.Cache.create () in
  let lookup () =
    Backend.compile_cached ~cache (Registry.find "risc0")
      ~fp:(Zkopt_exec.Fingerprint.of_modul m) (Lazy.from_val m)
  in
  (lookup (), lookup)

(* Stand-ins for factorial's RV32 artifact: [cold] is the artifact a cache
   over a store compiled, with its unfaulted runs at the default fuel
   (risc0, sp1 and the CPU model) kept; each [stand_in ()] is a lookup
   through a fresh cache (or [?cache]) over the same store, which does
   not hold the artifact in memory.  [compiles] counts the artifacts
   compiled and [runs] the executions after [cold]'s. *)
type stand_ins = {
  m : Modul.t;
  key : string;  (** the artifact key *)
  cold : Backend.compiled;
  stand_in : ?cache:Backend.compiled Zkopt_exec.Cache.t -> unit -> Backend.compiled;
  compiles : int ref;
  runs : int ref;
}

let factorial_stand_ins dir =
  let m = factorial () in
  let compiles = ref 0 and runs = ref 0 in
  let counted = Test_harness.counting ~zk:runs ~cpu:runs (Registry.find "risc0") in
  let b =
    {
      counted with
      Backend.compile =
        (fun m ->
          incr compiles;
          counted.Backend.compile m);
    }
  in
  let fp = Zkopt_exec.Fingerprint.of_modul m in
  let stand_in ?(cache = Zkopt_exec.Cache.create ~dir ()) () =
    Backend.compile_cached ~cache b ~fp (Lazy.from_val m)
  in
  let cold = stand_in () in
  List.iter (fun vm -> ignore (cold.Backend.measure ~vm ())) [ "risc0"; "sp1" ];
  ignore ((Option.get cold.Backend.measure_cpu) ());
  compiles := 0;
  runs := 0;
  { m; key = fp ^ "+" ^ b.Backend.schema; cold; stand_in; compiles; runs }

let starves name run =
  match run () with
  | _ -> Alcotest.failf "%s at fuel 100 must run out of fuel" name
  | exception Zkopt_riscv.Emulator.Out_of_fuel _ -> ()

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
  starves "measure" (fun () ->
      ignore (again.Backend.measure ~vm:"risc0" ~fuel:100 ()));
  starves "measure_cpu" (fun () -> ignore (cpu_again ~fuel:100 ()));
  (* a stand-in answers an equal call from the kept run, compiling nothing *)
  Test_exec.with_temp_dir @@ fun dir ->
  let h = factorial_stand_ins dir in
  let c = h.stand_in () in
  let cpu = Option.get c.Backend.measure_cpu in
  let cold_cpu = Option.get h.cold.Backend.measure_cpu in
  Alcotest.(check bool) "a stand-in serves the kept runs" true
    (c.Backend.measure ~vm:"risc0" () = h.cold.Backend.measure ~vm:"risc0" ()
    && c.Backend.measure ~vm:"sp1" ~fuel () = h.cold.Backend.measure ~vm:"sp1" ()
    && cpu () = cold_cpu ()
    && cpu ~fuel () = cold_cpu ());
  Alcotest.(check int) "and compiles no artifact" 0 !(h.compiles);
  (* a starved call compiles the artifact once, runs out and keeps
     nothing: a fresh stand-in executes it again *)
  starves "a stand-in's measure" (fun () ->
      ignore (c.Backend.measure ~vm:"risc0" ~fuel:100 ()));
  starves "a stand-in's measure_cpu" (fun () -> ignore (cpu ~fuel:100 ()));
  Alcotest.(check (pair int int)) "a starved stand-in: one compile, two runs" (1, 2)
    (!(h.compiles), !(h.runs));
  let fresh = Zkopt_exec.Cache.create ~dir () in
  Alcotest.(check (list (option string))) "no starved run is kept" [ None; None ]
    (List.map
       (fun key -> Zkopt_exec.Cache.resolve fresh ~key)
       [ h.key ^ " risc0 100"; h.key ^ " 100" ]);
  starves "a fresh stand-in's measure" (fun () ->
      ignore ((h.stand_in ()).Backend.measure ~vm:"risc0" ~fuel:100 ()));
  Alcotest.(check (pair int int)) "which runs again" (2, 3) (!(h.compiles), !(h.runs))

(* A zkVM sink that sums retire and precompile costs into [user] and
   page-in and page-out costs into [paging]; [check vm z] then requires
   the sums to match the metrics [z]. *)
let summing_sink () =
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
  let check vm (z : Measure.zk_metrics) =
    Alcotest.(check bool) (vm ^ " pages") true (z.Measure.paging_cycles > 0);
    Alcotest.(check int) (vm ^ ": retire + precompile costs")
      (z.Measure.cycles - z.Measure.paging_cycles) !user;
    Alcotest.(check int) (vm ^ ": page-in + page-out costs")
      z.Measure.paging_cycles !paging
  in
  (sink, check)

(* A CPU-model sink whose retire costs must sum to [cpu_cycles]. *)
let check_cpu_sink label (run : ?sink:Zkopt_zkvm.Machine.sink -> unit -> _)
    cpu_cycles =
  let total = ref 0.0 in
  let sink =
    Zkopt_zkvm.Machine.sink
      ~on_cpu_retire:(fun ~pc:_ _ ~cost -> total := !total +. cost)
      ()
  in
  ignore (run ~sink ());
  Alcotest.(check int64) (label ^ ": on_cpu_retire costs sum to cpu_cycles")
    (Int64.bits_of_float cpu_cycles) (Int64.bits_of_float !total)

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
      let sink, check = summing_sink () in
      let vm = z.Measure.vm in
      let seen = c.Backend.measure ~vm ~sink () in
      check vm z;
      Alcotest.(check bool) (vm ^ ": same metrics as the kept run") true
        (seen.Backend.zk = z))
    plain;
  check_cpu_sink "memo" (fun ?sink () -> cpu ?sink ()) cpu_cycles;
  (* a stand-in compiles its artifact once for sinked calls, whose sinks
     see every event; a faulted call executes *)
  Test_exec.with_temp_dir @@ fun dir ->
  let h = factorial_stand_ins dir in
  let cache = Zkopt_exec.Cache.create ~dir () in
  let c = h.stand_in ~cache () in
  List.iter
    (fun vm ->
      let z = (h.cold.Backend.measure ~vm ()).Backend.zk in
      let sink, check = summing_sink () in
      let seen = c.Backend.measure ~vm ~sink () in
      check ("stand-in " ^ vm) z;
      Alcotest.(check bool) ("stand-in " ^ vm ^ ": same metrics as the kept run")
        true (seen.Backend.zk = z))
    [ "risc0"; "sp1" ];
  check_cpu_sink "stand-in"
    (fun ?sink () -> (Option.get c.Backend.measure_cpu) ?sink ())
    ((Option.get h.cold.Backend.measure_cpu) ()).Measure.cpu_cycles;
  Alcotest.(check (pair int int)) "sinked stand-in calls: one compile, three runs"
    (1, 3) (!(h.compiles), !(h.runs));
  let faulted =
    c.Backend.measure ~vm:"risc0" ~fault:Zkopt_zkvm.Machine.Corrupt_exit_value ()
  in
  Alcotest.(check bool) "a faulted stand-in call executes" true
    (faulted.Backend.faulted && !(h.runs) = 4);
  let s = Zkopt_exec.Cache.stats cache in
  Alcotest.(check (list int)) "the stand-in looked its artifact up once: a compile"
    [ 0; 0; 1 ]
    Zkopt_exec.Cache.[ s.hits; s.disk_hits; s.misses ];
  (* a stand-in's static data are the artifact's, compiled on first use *)
  let d = h.stand_in () in
  Alcotest.(check int) "a fresh stand-in compiles nothing yet" 1 !(h.compiles);
  Alcotest.(check int) "stand-in static_instrs" (h.cold.Backend.static_instrs ())
    (d.Backend.static_instrs ());
  Alcotest.(check (list (pair string int))) "stand-in spills"
    (h.cold.Backend.spills ()) (d.Backend.spills ());
  let program =
    (Measure.compile_ir h.m).Measure.codegen.Zkopt_riscv.Codegen.program
  in
  let pcs =
    List.init
      (Array.length program.Zkopt_riscv.Asm.code + 2)
      (fun i -> Int32.add program.Zkopt_riscv.Asm.base (Int32.of_int (4 * (i - 1))))
  in
  Alcotest.(check bool) "stand-in site_of_pc" true
    (List.map d.Backend.site_of_pc pcs = List.map h.cold.Backend.site_of_pc pcs);
  Alcotest.(check int) "static data compile the artifact once" 2 !(h.compiles)

(* ---- kept runs in the compile cache's first level ------------------- *)

(* Any float but a NaN (whose payload no text codec keeps): random bit
   patterns, subnormals, signed zeros and infinities. *)
let gen_float =
  QCheck.Gen.(
    oneof
      [ map Int64.float_of_bits ui64;
        oneofl [ 0.0; -0.0; infinity; neg_infinity; max_float; min_float;
                 Float.epsilon; 4.9e-324; -4.9e-324; 1.5; 1e-310 ] ]
    |> map (fun f -> if Float.is_nan f then 0.0 else f))

let gen_zk =
  QCheck.Gen.(
    map
      (fun ((vm, cycles, exec_time_s, prove_time_s),
            (segments, paging_cycles, page_ins, page_outs),
            (loads, stores, exit_value)) ->
        { Measure.vm; cycles; exec_time_s; prove_time_s; segments;
          paging_cycles; page_ins; page_outs; loads; stores; exit_value })
      (triple
         (quad (oneofl [ "risc0"; "sp1"; "valida"; "sp1-dense" ]) int gen_float gen_float)
         (quad int int nat nat)
         (triple int int ui64)))

let gen_measurement =
  QCheck.Gen.(
    map2
      (fun zk seg_padded ->
        { Backend.zk; faulted = false; seg_padded })
      gen_zk
      (oneof
         [ return []; list_size (int_range 1 8) nat;
           list_size (return 3000) int ]))

let gen_cpu =
  QCheck.Gen.(
    map
      (fun ((cpu_cycles, cpu_time_s), (mispredicts, cache_misses, cpu_exit_value)) ->
        { Measure.cpu_cycles; cpu_time_s; mispredicts; cache_misses; cpu_exit_value })
      (pair (pair gen_float gen_float) (triple int int ui64)))

let bits = Int64.bits_of_float

let same_zk (a : Measure.zk_metrics) (b : Measure.zk_metrics) =
  String.equal a.Measure.vm b.Measure.vm
  && a.Measure.cycles = b.Measure.cycles
  && bits a.Measure.exec_time_s = bits b.Measure.exec_time_s
  && bits a.Measure.prove_time_s = bits b.Measure.prove_time_s
  && a.Measure.segments = b.Measure.segments
  && a.Measure.paging_cycles = b.Measure.paging_cycles
  && a.Measure.page_ins = b.Measure.page_ins
  && a.Measure.page_outs = b.Measure.page_outs
  && a.Measure.loads = b.Measure.loads
  && a.Measure.stores = b.Measure.stores
  && Int64.equal a.Measure.exit_value b.Measure.exit_value

let same_cpu (a : Measure.cpu_metrics) (b : Measure.cpu_metrics) =
  bits a.Measure.cpu_cycles = bits b.Measure.cpu_cycles
  && bits a.Measure.cpu_time_s = bits b.Measure.cpu_time_s
  && a.Measure.mispredicts = b.Measure.mispredicts
  && a.Measure.cache_misses = b.Measure.cache_misses
  && Int64.equal a.Measure.cpu_exit_value b.Measure.cpu_exit_value

let prop_run_codecs_roundtrip =
  QCheck.Test.make ~name:"kept-run codecs round-trip bit for bit" ~count:300
    (QCheck.make QCheck.Gen.(pair gen_measurement gen_cpu))
    (fun (r, c) ->
      (match Backend.decode_run (Backend.encode_run r) with
       | Some r' ->
         same_zk r.Backend.zk r'.Backend.zk
         && r'.Backend.seg_padded = r.Backend.seg_padded
         && not r'.Backend.faulted
       | None -> false)
      &&
      match Backend.decode_cpu_run (Backend.encode_cpu_run c) with
      | Some c' -> same_cpu c c'
      | None -> false)

(* Every proper prefix of a valid value, and random bytes, decode to
   [None]; an exception fails the property. *)
let prop_run_decoders_total =
  QCheck.Test.make ~name:"kept-run decoders are total" ~count:100
    (QCheck.make
       QCheck.Gen.(
         triple
           (map2
              (fun r seg_padded -> { r with Backend.seg_padded })
              gen_measurement (list_size (int_bound 4) nat))
           gen_cpu (string_size (int_bound 200))))
    (fun (r, c, junk) ->
      let prefixes_fail decode v =
        List.for_all
          (fun i -> Option.is_none (decode (String.sub v 0 i)))
          (List.init (String.length v) Fun.id)
      in
      prefixes_fail Backend.decode_run (Backend.encode_run r)
      && prefixes_fail Backend.decode_cpu_run (Backend.encode_cpu_run c)
      && Option.is_none (Backend.decode_run junk)
      && Option.is_none (Backend.decode_cpu_run junk))

(* A backend whose one artifact counts its runs in [runs] and then
   raises [Backend.Accounting msg] if [accounting] is [Error msg], or
   returns a fixed measurement that reports a fault iff [faulted]; its
   schema names both so two such backends never share an artifact.  It
   has no CPU model, so it is zk-native. *)
let synthetic ?(faulted = false) ~runs ~accounting () : Backend.t =
  let schema =
    String.concat "-"
      [ "synthetic"; (match accounting with Ok () -> "ok" | Error _ -> "err");
        string_of_bool faulted ]
  in
  let artifact : Backend.compiled =
    {
      Backend.static_instrs = (fun () -> 1);
      site_of_pc = (fun _ -> None);
      spills = (fun () -> []);
      measure =
        (fun ~vm ?fault:_ ?fuel:_ ?sink:_ () ->
          incr runs;
          Result.iter_error (fun msg -> raise (Backend.Accounting msg)) accounting;
          {
            Backend.zk =
              { Measure.vm; cycles = 7; exec_time_s = 0.25; prove_time_s = 1.5;
                segments = 1; paging_cycles = 2; page_ins = 1; page_outs = 0;
                loads = 3; stores = 4; exit_value = 42L };
            faulted;
            seg_padded = [ 1024 ];
          });
      measure_cpu = None;
    }
  in
  {
    Backend.name = "synthetic";
    doc = "test artifact with a fixed measurement";
    zk_native = true;
    schema;
    segment_pad = (fun _ -> 0);
    compile = (fun _ -> artifact);
    decode = (fun _ _ -> None);
  }

(* A run whose accounting fails, or that reports a fault although none
   was asked for, is never recorded: a fresh cache over the same store
   executes it again, where a clean run is served. *)
let test_failed_accounting_not_kept () =
  Test_exec.with_temp_dir @@ fun dir ->
  let fp = "0123456789abcdef0123456789abcdef" in
  let measure_twice ?faulted accounting =
    let runs = ref 0 in
    let b = synthetic ?faulted ~runs ~accounting () in
    for _ = 1 to 2 do
      let cache = Zkopt_exec.Cache.create ~dir () in
      let c = Backend.compile_cached ~cache b ~fp (lazy (Modul.create ())) in
      match c.Backend.measure ~vm:b.Backend.name () with
      | _ -> ()
      | exception Backend.Accounting _ -> ()
    done;
    (!runs, fp ^ "+" ^ b.Backend.schema)
  in
  let ok_runs, ok_key = measure_twice (Ok ()) in
  let err_runs, err_key = measure_twice (Error "planted") in
  let faulted_runs, faulted_key = measure_twice ~faulted:true (Ok ()) in
  let rows = In_channel.with_open_bin (Test_exec.inputs_log dir) In_channel.input_all in
  let rows_of key =
    List.filter (String.starts_with ~prefix:key) (String.split_on_char '\n' rows)
  in
  Alcotest.(check int) "a clean run is recorded" 1 (List.length (rows_of ok_key));
  Alcotest.(check int) "a fresh cache runs no clean run again" 1 ok_runs;
  Alcotest.(check (list string)) "a run with failed accounting is not recorded" []
    (rows_of err_key);
  Alcotest.(check int) "a fresh cache executes it again" 2 err_runs;
  Alcotest.(check (list string)) "a faulted run is not recorded" []
    (rows_of faulted_key);
  Alcotest.(check int) "a fresh cache executes it again too" 2 faulted_runs

(* ---- the accounting oracle ------------------------------------------ *)

(* The message [check] gives a run the injected fault must unbalance. *)
let failure what = function
  | Ok () -> Alcotest.failf "%s: the fault must unbalance the run" what
  | Error msg -> msg

(* [run ()] must raise [Backend.Accounting want]. *)
let raises_accounting what want run =
  match run () with
  | _ -> Alcotest.failf "%s: an unbalanced run must raise" what
  | exception Backend.Accounting msg -> Alcotest.(check string) what want msg

(* An artifact's [measure] is the one accounting oracle: a run whose
   trace does not reconcile raises with the executor's own check's
   message, through a cache or not, and a fault the accounting cannot
   see returns a balanced, faulted run that is never recorded. *)
let test_unbalanced_run_raises () =
  Test_exec.with_temp_dir @@ fun dir ->
  let m =
    Measure.prepare_ir ~build:(fun () -> Test_harness.touch_pages_program 16)
      Profile.Baseline
  in
  let fp = Zkopt_exec.Fingerprint.of_modul m in
  let cache = Zkopt_exec.Cache.create ~dir () in
  let artifacts name =
    let b = Registry.find name in
    [ ("uncached", Backend.compile_cached b ~fp (lazy m));
      ("cached", Backend.compile_cached ~cache b ~fp (lazy m)) ]
  in
  let c = Measure.compile_ir m and cfg = Zkopt_zkvm.Config.risc0 in
  List.iter
    (fun fault ->
      let what = "risc0 " ^ Faultplan.kind_name fault in
      let want =
        failure what (Zkopt_zkvm.Vm.check_accounting cfg (Measure.run ~fault cfg c))
      in
      List.iter
        (fun (how, a) ->
          raises_accounting (what ^ ", " ^ how) want (fun () ->
              a.Backend.measure ~vm:"risc0" ~fault ()))
        (artifacts "risc0"))
    [ Machine.Dropped_page_out; Machine.Truncated_final_segment ];
  let code =
    Vexec.decode Zkopt_valida.Vconfig.valida (Zkopt_valida.Vlower.lower m)
  in
  let fault = Machine.Dropped_page_out in
  let want = failure "valida" (Vexec.check_accounting (Vexec.run ~fault code)) in
  List.iter
    (fun (how, a) ->
      raises_accounting ("valida, " ^ how) want (fun () ->
          a.Backend.measure ~vm:"valida" ~fault ()))
    (artifacts "valida");
  List.iter
    (fun (how, a) ->
      let r = a.Backend.measure ~vm:"risc0" ~fault:Machine.Corrupt_exit_value () in
      Alcotest.(check bool) ("a corrupt exit value balances, reported: " ^ how)
        true r.Backend.faulted)
    (artifacts "risc0");
  let clean = List.assoc "cached" (artifacts "risc0") in
  ignore (clean.Backend.measure ~vm:"risc0" ());
  let rows =
    In_channel.with_open_bin (Test_exec.inputs_log dir) In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (String.starts_with ~prefix:fp)
  in
  Alcotest.(check int) "of all these runs only the clean one is recorded" 1
    (List.length rows)

(* Corpus entries name their injected fault ([fault: risc0:corrupt-exit-value]
   in corpus/*.bug), so every name is fixed and parses back. *)
let test_fault_names_roundtrip () =
  Alcotest.(check (list string)) "fault names"
    [ "silent-halt-on-boundary-jalr"; "dropped-page-out";
      "truncated-final-segment"; "corrupt-exit-value" ]
    (List.map Faultplan.kind_name Faultplan.all_kinds);
  List.iter
    (fun k ->
      Alcotest.(check bool) (Faultplan.kind_name k ^ " round-trips") true
        (Faultplan.kind_of_name (Faultplan.kind_name k) = Some k))
    Faultplan.all_kinds

let tests =
  [
    Alcotest.test_case "registry contents and schemas" `Quick
      test_registry_contents;
    Alcotest.test_case "unknown backend error lists options" `Quick
      test_registry_unknown_lists_options;
    Alcotest.test_case "CPU model iff not zk-native" `Quick
      test_cpu_model_iff_not_zk_native;
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
    Alcotest.test_case "a run with failed accounting is not kept" `Quick
      test_failed_accounting_not_kept;
    Alcotest.test_case "an unbalanced run raises Accounting" `Quick
      test_unbalanced_run_raises;
    Alcotest.test_case "fault names round-trip" `Quick test_fault_names_roundtrip;
    QCheck_alcotest.to_alcotest prop_run_codecs_roundtrip;
    QCheck_alcotest.to_alcotest prop_run_decoders_total;
  ]
