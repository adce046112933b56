let frame_size (r : Regalloc.result) =
  let vc = r.Regalloc.vcode in
  vc.Isel.max_outgoing + r.Regalloc.spill_slots
  + List.length r.Regalloc.used_callee_saved

(* Whether the first of the blocks still to lay out is labelled [l]:
   a jump there falls through. *)
let falls_to rest l =
  match rest with (n : Isel.vblock) :: _ -> n.Isel.vlabel = l | [] -> false

let emit (r : Regalloc.result) =
  let vc = r.Regalloc.vcode in
  let frame = frame_size r in
  let saves = r.Regalloc.used_callee_saved in
  let save_base = vc.Isel.max_outgoing + r.Regalloc.spill_slots in
  let epilogue =
    if frame = 0 then []
    else
      List.mapi (fun k reg -> Mach.Ld (reg, Mach.reg_sp, save_base + k)) saves
      @ [ Mach.Adjsp frame ]
  in
  (* Incoming stack arguments were selected with a sentinel offset. *)
  let fix_incoming i =
    match i with
    | Mach.Ld (d, b, off) when b = Mach.reg_sp && off >= Isel.incoming_base ->
      Mach.Ld (d, b, frame + (off - Isel.incoming_base))
    | other -> other
  in
  (* Entry block must be first in layout. *)
  let blocks =
    match vc.Isel.vblocks with
    | first :: _ when first.Isel.vlabel = vc.Isel.ventry -> vc.Isel.vblocks
    | _ ->
      let entry, rest =
        List.partition
          (fun (b : Isel.vblock) -> b.Isel.vlabel = vc.Isel.ventry)
          vc.Isel.vblocks
      in
      entry @ rest
  in
  (* Pass 1: lay out instructions with symbolic branch targets (block
     labels) into an array sized for the worst case (a body, two
     branches, an epilogue and a return per block); record each
     block's start offset by label. *)
  let nepilogue = List.length epilogue in
  let cap, max_label =
    List.fold_left
      (fun (cap, l) (b : Isel.vblock) ->
        (cap + List.length b.Isel.body + 2 + nepilogue, max l b.Isel.vlabel))
      ((if frame = 0 then 0 else 1 + List.length saves), -1)
      blocks
  in
  let code = Array.make cap Mach.Halt and len = ref 0 in
  let push i =
    code.(!len) <- i;
    incr len
  in
  let offsets = Array.make (max_label + 1) (-1) in
  if frame <> 0 then begin
    push (Mach.Adjsp (-frame));
    List.iteri (fun k reg -> push (Mach.St (reg, Mach.reg_sp, save_base + k))) saves
  end;
  let rec emit_blocks = function
    | [] -> ()
    | (b : Isel.vblock) :: rest ->
      offsets.(b.Isel.vlabel) <- !len;
      List.iter (fun i -> push (fix_incoming i)) b.Isel.body;
      (match b.Isel.vterm with
      | Isel.Vjmp l -> if not (falls_to rest l) then push (Mach.B l)
      | Isel.Vbr (reg, ifso, ifnot) ->
        if falls_to rest ifnot then push (Mach.Bnz (reg, ifso))
        else if falls_to rest ifso then push (Mach.Bz (reg, ifnot))
        else begin
          push (Mach.Bnz (reg, ifso));
          push (Mach.B ifnot)
        end
      | Isel.Vret ->
        List.iter push epilogue;
        push Mach.Ret);
      emit_blocks rest
  in
  emit_blocks blocks;
  (* Pass 2: resolve block labels to instruction offsets, in place. *)
  let resolve label =
    if label >= 0 && label <= max_label && offsets.(label) >= 0 then offsets.(label)
    else invalid_arg (Printf.sprintf "Codegen: branch to missing block L%d" label)
  in
  let code = Array.sub code 0 !len in
  Array.iteri
    (fun k i ->
      match i with
      | Mach.B _ | Mach.Bz _ | Mach.Bnz _ -> code.(k) <- Mach.retarget resolve i
      | _ -> ())
    code;
  {
    Mach.fname = vc.Isel.vname;
    module_name = vc.Isel.vmodule;
    code;
    src_lines = vc.Isel.vsrc_lines;
  }
