module Instr = Cmo_il.Instr
module Func = Cmo_il.Func
module Bitset = Cmo_support.Bitset

(* Sets are indexed by layout position; [index] maps a label to it
   (the last block with the label, -1 for none). *)
type t = {
  nregs : int;
  index : int array;
  live_in : Bitset.t array;
  live_out : Bitset.t array;
}

(* Upward-exposed uses and definitions of one block: live_in =
   gen + (live_out - kill) is the backward walk of its instructions
   folded into one step. *)
let gen_kill nregs (b : Func.block) =
  let gen = Bitset.create nregs and kill = Bitset.create nregs in
  List.iter (Bitset.add gen) (Instr.term_uses b.Func.term);
  List.iter
    (fun i ->
      Option.iter
        (fun d ->
          Bitset.remove gen d;
          Bitset.add kill d)
        (Instr.def i);
      List.iter (Bitset.add gen) (Instr.uses i))
    (List.rev b.Func.instrs);
  (gen, kill)

let compute (f : Func.t) =
  let nregs = f.Func.next_reg in
  let blocks = Array.of_list f.Func.blocks in
  let index = Array.make (Func.label_bound f) (-1) in
  Array.iteri (fun i (b : Func.block) -> index.(b.Func.label) <- i) blocks;
  let succs =
    Array.map
      (fun (b : Func.block) ->
        Array.of_list
          (List.filter_map
             (fun l -> if index.(l) >= 0 then Some index.(l) else None)
             (Instr.targets b.Func.term)))
      blocks
  in
  let gen_kill = Array.map (gen_kill nregs) blocks in
  let live_in, live_out =
    Cmo_support.Dataflow.backward ~nbits:nregs ~succs ~gen:(Array.map fst gen_kill)
      ~kill:(Array.map snd gen_kill)
  in
  { nregs; index; live_in; live_out }

let position t label =
  if label >= 0 && label < Array.length t.index then t.index.(label) else -1

let elements sets t label =
  let i = position t label in
  if i >= 0 then Bitset.elements sets.(i) else []

let live_out t label = elements t.live_out t label

let live_out_set t label =
  let i = position t label in
  if i >= 0 then Bitset.copy t.live_out.(i) else Bitset.create t.nregs

let live_in t label = elements t.live_in t label

let mem sets t label r =
  let i = position t label in
  i >= 0 && r < t.nregs && Bitset.mem sets.(i) r

let live_out_mem t label r = mem t.live_out t label r

let live_in_mem t label r = mem t.live_in t label r

let footprint ~blocks ~nregs = 64 + (2 * blocks * ((nregs / 8) + 16))
