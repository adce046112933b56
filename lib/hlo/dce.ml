module Instr = Cmo_il.Instr
module Func = Cmo_il.Func
module Bitset = Cmo_support.Bitset

let run (f : Func.t) =
  let live = Liveness.compute f in
  let deleted = ref 0 in
  List.iter
    (fun (b : Func.block) ->
      (* Walk backward with a running live set (registers read later
         in this block or live-out). *)
      let live_now = Liveness.live_out_set live b.Func.label in
      List.iter (Bitset.add live_now) (Instr.term_uses b.Func.term);
      let keep_rev =
        List.fold_left
          (fun acc i ->
            let needed =
              match Instr.def i with
              | Some d -> Bitset.mem live_now d
              | None -> true
            in
            if Instr.is_pure i && not needed then begin
              incr deleted;
              acc
            end
            else begin
              let i =
                (* A call whose result is dead keeps its effects but
                   drops the definition. *)
                match i with
                | Instr.Call ({ dst = Some d; _ } as c)
                  when not (Bitset.mem live_now d) ->
                  Instr.Call { c with Instr.dst = None }
                | other -> other
              in
              Option.iter (Bitset.remove live_now) (Instr.def i);
              List.iter (Bitset.add live_now) (Instr.uses i);
              i :: acc
            end)
          []
          (List.rev b.Func.instrs)
      in
      b.Func.instrs <- keep_rev)
    f.Func.blocks;
  !deleted
