(** Code-generation driver: IR module -> assembled RV32 program.

    Pipeline per function: instruction selection -> linear-scan register
    allocation -> prologue/epilogue insertion.  [main] halts via ecall
    instead of returning.  Frame layout (from sp upward): alloca area,
    spill slots, saved ra. *)

open Zkopt_ir

type func_stats = {
  fname : string;
  instrs : int;          (* machine instructions after allocation *)
  spill_slots : int;
  spill_loads : int;
  spill_stores : int;
}

type t = {
  program : Asm.program;
  stats : func_stats list;
}

let frame_adjust items ~frame ~down =
  let amount = if down then -frame else frame in
  if frame = 0 then items
  else if Asm.fits_imm12 amount then
    Asm.Ins (Isa.Opi (Isa.ADDI, Isa.sp, Isa.sp, amount)) :: items
  else
    (* li t6, frame; sub/add sp, sp, t6 *)
    Asm.Li (Isa.t6, Int32.of_int frame)
    :: Asm.Ins (Isa.Op ((if down then Isa.SUB else Isa.ADD), Isa.sp, Isa.sp, Isa.t6))
    :: items

let lower_func (m : Modul.t) (f : Func.t) : Asm.unit_ * func_stats =
  let sel = Isel.select m f in
  let ra_result = Regalloc.allocate ~slot_base:sel.Isel.alloca_bytes sel.Isel.items in
  let frame_core = sel.Isel.alloca_bytes + (4 * ra_result.Regalloc.spill_slots) in
  let save_ra = sel.Isel.has_calls in
  let frame =
    Layout.align_up (frame_core + (if save_ra then 4 else 0)) 16
  in
  let is_main = String.equal f.Func.name "main" in
  let ra_slot_seq ~load =
    (* address the ra slot even when the frame exceeds the imm12 range *)
    if Asm.fits_imm12 (frame - 4) then
      if load then [ Asm.Ins (Isa.Load (Isa.LW, Isa.ra, Isa.sp, frame - 4)) ]
      else [ Asm.Ins (Isa.Store (Isa.SW, Isa.ra, Isa.sp, frame - 4)) ]
    else
      [ Asm.Li (Isa.t6, Int32.of_int (frame - 4));
        Asm.Ins (Isa.Op (Isa.ADD, Isa.t6, Isa.sp, Isa.t6));
        (if load then Asm.Ins (Isa.Load (Isa.LW, Isa.ra, Isa.t6, 0))
         else Asm.Ins (Isa.Store (Isa.SW, Isa.ra, Isa.t6, 0))) ]
  in
  let prologue =
    (* adjust sp first, then save ra into the new frame *)
    let save = if save_ra then ra_slot_seq ~load:false else [] in
    frame_adjust save ~frame ~down:true
  in
  let epilogue =
    let restore = if save_ra then ra_slot_seq ~load:true else [] in
    let unwind = List.rev (frame_adjust [] ~frame ~down:false) in
    let finish =
      if is_main then
        (* halt with the return value already in a0 *)
        [ Asm.Li (17, Int32.of_int Emulator.syscall_halt); Asm.Ins Isa.Ecall ]
      else [ Asm.Ret ]
    in
    restore @ unwind @ finish
  in
  let items =
    (Asm.Loc "<prologue>" :: prologue)
    @ ra_result.Regalloc.items
    @ (Asm.Loc "<epilogue>" :: epilogue)
  in
  let instrs =
    List.fold_left
      (fun acc it ->
        acc + (match it with Asm.Label _ | Asm.Loc _ -> 0 | _ -> 1))
      0 items
  in
  ( { Asm.name = f.Func.name; items },
    {
      fname = f.Func.name;
      instrs;
      spill_slots = ra_result.Regalloc.spill_slots;
      spill_loads = ra_result.Regalloc.spill_loads;
      spill_stores = ra_result.Regalloc.spill_stores;
    } )

(** Compile a whole module.  [main] is laid out first. *)
let compile (m : Modul.t) : t =
  let funcs =
    let mains, rest =
      List.partition (fun (f : Func.t) -> String.equal f.Func.name "main") m.Modul.funcs
    in
    mains @ rest
  in
  let lowered = List.map (lower_func m) funcs in
  let globals, data_end = Layout.place_globals m in
  let program = Asm.assemble ~globals ~data_end (List.map fst lowered) in
  { program; stats = List.map snd lowered }
