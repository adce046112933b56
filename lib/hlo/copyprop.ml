module Instr = Cmo_il.Instr
module Func = Cmo_il.Func

let run (f : Func.t) =
  let rewrites = ref 0 in
  (* copy_of.(d) = s when d currently equals register s, -1 when d is
     no copy.  One table for the routine: each block starts from an
     empty one by clearing the slots it set, listed in [touched]. *)
  let nregs = f.Func.next_reg in
  let copy_of = Array.make nregs (-1) in
  let listed = Array.make nregs false in
  let touched = ref [] in
  List.iter
    (fun (b : Func.block) ->
      let subst op =
        match op with
        | Instr.Reg r ->
          let s = copy_of.(r) in
          if s >= 0 then begin
            incr rewrites;
            Instr.Reg s
          end
          else op
        | Instr.Imm _ -> op
      in
      let kill d =
        copy_of.(d) <- -1;
        (* Any copy pointing at d is now stale. *)
        List.iter (fun k -> if copy_of.(k) = d then copy_of.(k) <- -1) !touched
      in
      b.Func.instrs <-
        List.map
          (fun i ->
            let i = Instr.map_operands subst i in
            (match Instr.def i with Some d -> kill d | None -> ());
            (match i with
            | Instr.Move (d, Instr.Reg s) when d <> s ->
              copy_of.(d) <- s;
              if not listed.(d) then begin
                listed.(d) <- true;
                touched := d :: !touched
              end
            | _ -> ());
            i)
          b.Func.instrs;
      b.Func.term <- Instr.map_term_operands subst b.Func.term;
      List.iter
        (fun d ->
          copy_of.(d) <- -1;
          listed.(d) <- false)
        !touched;
      touched := [])
    f.Func.blocks;
  !rewrites
