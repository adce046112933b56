let frame_size (r : Regalloc.result) =
  let vc = r.Regalloc.vcode in
  vc.Isel.max_outgoing + r.Regalloc.spill_slots
  + List.length r.Regalloc.used_callee_saved

let emit (r : Regalloc.result) =
  let vc = r.Regalloc.vcode in
  let frame = frame_size r in
  let save_base = vc.Isel.max_outgoing + r.Regalloc.spill_slots in
  let prologue =
    if frame = 0 then []
    else
      Mach.Adjsp (-frame)
      :: List.mapi
           (fun k reg -> Mach.St (reg, Mach.reg_sp, save_base + k))
           r.Regalloc.used_callee_saved
  in
  let epilogue =
    if frame = 0 then []
    else
      List.mapi
        (fun k reg -> Mach.Ld (reg, Mach.reg_sp, save_base + k))
        r.Regalloc.used_callee_saved
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
     labels); record each block's start offset. *)
  let buf = ref [] in
  let len = ref 0 in
  let push i =
    buf := i :: !buf;
    incr len
  in
  let offsets = Hashtbl.create 16 in
  List.iter (fun i -> push (fix_incoming i)) prologue;
  let rec emit_blocks = function
    | [] -> ()
    | (b : Isel.vblock) :: rest ->
      Hashtbl.replace offsets b.Isel.vlabel !len;
      List.iter (fun i -> push (fix_incoming i)) b.Isel.body;
      let next_label =
        match rest with
        | (n : Isel.vblock) :: _ -> Some n.Isel.vlabel
        | [] -> None
      in
      (match b.Isel.vterm with
      | Isel.Vjmp l -> if next_label <> Some l then push (Mach.B l)
      | Isel.Vbr (reg, ifso, ifnot) ->
        if next_label = Some ifnot then push (Mach.Bnz (reg, ifso))
        else if next_label = Some ifso then push (Mach.Bz (reg, ifnot))
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
  (* Pass 2: resolve block labels to instruction offsets. *)
  let resolve label =
    match Hashtbl.find_opt offsets label with
    | Some off -> off
    | None -> invalid_arg (Printf.sprintf "Codegen: branch to missing block L%d" label)
  in
  let code =
    List.rev !buf
    |> List.map (fun i ->
           match i with
           | Mach.B _ | Mach.Bz _ | Mach.Bnz _ -> Mach.retarget resolve i
           | other -> other)
    |> Array.of_list
  in
  {
    Mach.fname = vc.Isel.vname;
    module_name = vc.Isel.vmodule;
    code;
    src_lines = vc.Isel.vsrc_lines;
  }
