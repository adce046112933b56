module Instr = Cmo_il.Instr
module Func = Cmo_il.Func

let remove_unreachable (f : Func.t) =
  let reachable = Func.reachable f (Func.index f) in
  let before = List.length f.Func.blocks in
  f.Func.blocks <-
    List.filter (fun (b : Func.block) -> reachable.(b.Func.label)) f.Func.blocks;
  before - List.length f.Func.blocks

let fold_constant_branches (f : Func.t) =
  let folded = ref 0 in
  List.iter
    (fun (b : Func.block) ->
      match b.Func.term with
      | Instr.Br { cond = Instr.Imm c; ifso; ifnot } ->
        b.Func.term <- Instr.Jmp (if c <> 0L then ifso else ifnot);
        incr folded
      | Instr.Br { ifso; ifnot; _ } when ifso = ifnot ->
        b.Func.term <- Instr.Jmp ifso;
        incr folded
      | Instr.Br _ | Instr.Jmp _ | Instr.Ret _ -> ())
    f.Func.blocks;
  !folded

let thread_jumps (f : Func.t) =
  (* final_target follows chains of empty Jmp-only blocks, with a
     visited set to stop at cycles (e.g. an empty infinite loop). *)
  let by_label = (Func.index f).Func.block_at in
  let rec final_target seen label =
    if List.mem label seen then label
    else
      match by_label.(label) with
      | Some { Func.instrs = []; term = Instr.Jmp next; _ } ->
        final_target (label :: seen) next
      | Some _ | None -> label
  in
  let threaded = ref 0 in
  List.iter
    (fun (b : Func.block) ->
      let retarget l =
        let l' = final_target [ b.Func.label ] l in
        if l' <> l then incr threaded;
        l'
      in
      b.Func.term <- Instr.retarget retarget b.Func.term)
    f.Func.blocks;
  (* The entry label itself may be a forwarder. *)
  let entry' = final_target [] f.Func.entry in
  if entry' <> f.Func.entry then begin
    f.Func.entry <- entry';
    incr threaded
  end;
  !threaded

let merge_straightline (f : Func.t) =
  let merged = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    (* Built once per sweep: a merge leaves the predecessor counts
       stale until the next sweep, and only clears the merged
       label's slot. *)
    let ix = Func.index f in
    let by_label = ix.Func.block_at in
    List.iter
      (fun (b : Func.block) ->
        if Option.is_some by_label.(b.Func.label) then
          match b.Func.term with
          | Instr.Jmp succ_label
            when succ_label <> b.Func.label
                 && succ_label <> f.Func.entry
                 && Func.sole_pred ix succ_label = b.Func.label -> (
            match by_label.(succ_label) with
            | Some succ ->
              b.Func.instrs <- b.Func.instrs @ succ.Func.instrs;
              b.Func.term <- succ.Func.term;
              if succ.Func.freq > b.Func.freq then b.Func.freq <- succ.Func.freq;
              by_label.(succ_label) <- None;
              f.Func.blocks <-
                List.filter
                  (fun (x : Func.block) -> x.Func.label <> succ_label)
                  f.Func.blocks;
              incr merged;
              changed := true
            | None -> ())
          | Instr.Jmp _ | Instr.Br _ | Instr.Ret _ -> ())
      f.Func.blocks
  done;
  !merged

let simplify (f : Func.t) =
  let any = ref false in
  let changed = ref true in
  while !changed do
    let n =
      fold_constant_branches f + thread_jumps f + remove_unreachable f
      + merge_straightline f
    in
    changed := n > 0;
    if n > 0 then any := true
  done;
  !any
