module Bitset = Cmo_support.Bitset

type result = {
  vcode : Isel.vcode;
  spill_slots : int;
  used_callee_saved : Mach.reg list;
  spilled_vregs : int;
}

let is_vreg r = r >= Mach.first_vreg

(* --- liveness over vblocks --- *)

(* Live sets over virtual registers, numbered [v - first_vreg], one
   per block in layout order.  Physical registers are never
   tracked. *)
let block_liveness (vc : Isel.vcode) blocks =
  let nbits = vc.Isel.next_vreg - Mach.first_vreg in
  (* Block index by label ([-1]: no such block; a repeated label names
     its last block). *)
  let max_label = Array.fold_left (fun m (b : Isel.vblock) -> max m b.Isel.vlabel) (-1) blocks in
  let index = Array.make (max_label + 1) (-1) in
  Array.iteri (fun i (b : Isel.vblock) -> index.(b.Isel.vlabel) <- i) blocks;
  let block l = if l >= 0 && l <= max_label then index.(l) else -1 in
  let succs =
    Array.map
      (fun (b : Isel.vblock) ->
        match b.Isel.vterm with
        | Isel.Vjmp l -> if block l < 0 then [||] else [| block l |]
        | Isel.Vbr (_, l, l') -> (
          match (block l, block l') with
          | -1, -1 -> [||]
          | i, -1 | -1, i -> [| i |]
          | i, i' -> [| i; i' |])
        | Isel.Vret -> [||])
      blocks
  in
  let gen = Array.map (fun _ -> Bitset.create nbits) blocks in
  let kill = Array.map (fun _ -> Bitset.create nbits) blocks in
  (* Forward over each block: a register is generated when it is read
     before any instruction of the block writes it (an instruction
     reads its sources before it writes its destination). *)
  let cur = ref 0 in
  let read v =
    if is_vreg v && not (Bitset.mem kill.(!cur) (v - Mach.first_vreg)) then
      Bitset.add gen.(!cur) (v - Mach.first_vreg)
  in
  let write v = if is_vreg v then Bitset.add kill.(!cur) (v - Mach.first_vreg) in
  Array.iteri
    (fun i (b : Isel.vblock) ->
      cur := i;
      List.iter
        (fun instr ->
          Mach.iter_uses read instr;
          Mach.iter_defs write instr)
        b.Isel.body;
      match b.Isel.vterm with
      | Isel.Vbr (r, _, _) -> read r
      | Isel.Vjmp _ | Isel.Vret -> ())
    blocks;
  Cmo_support.Dataflow.backward ~nbits ~succs ~gen ~kill

(* --- intervals --- *)

(* The live intervals, by [v - first_vreg]: endpoints, and the
   profile-weighted spill cost — each use/def adds the executing
   block's frequency (1 when unprofiled), so the allocator evicts the
   register whose memory traffic would be cheapest, the PBO
   improvement to the allocation cost model the paper's section 2
   describes.  [hi < 0] marks a register that never appears.
   [order] lists the registers that do, in allocation order:
   ascending [lo], then register. *)
type intervals = { lo : int array; hi : int array; weight : float array; order : int array }

let compute_intervals (vc : Isel.vcode) =
  let blocks = Array.of_list vc.Isel.vblocks in
  let live_in, live_out = block_liveness vc blocks in
  let n = vc.Isel.next_vreg - Mach.first_vreg in
  let lo = Array.make n max_int and hi = Array.make n (-1) in
  let weight = Array.make n 0.0 in
  (* The current position and block weight; a one-cell float array
     keeps the weight unboxed. *)
  let pos = ref 0 and w = [| 0.0 |] in
  let extend at k =
    if at < lo.(k) then lo.(k) <- at;
    if at > hi.(k) then hi.(k) <- at
  in
  let touch v =
    if is_vreg v then begin
      let k = v - Mach.first_vreg in
      extend !pos k;
      weight.(k) <- weight.(k) +. w.(0)
    end
  in
  Array.iteri
    (fun i (b : Isel.vblock) ->
      let block_start = !pos in
      w.(0) <- Float.max 1.0 b.Isel.vfreq;
      List.iter
        (fun instr ->
          Mach.iter_defs touch instr;
          Mach.iter_uses touch instr;
          incr pos)
        b.Isel.body;
      (match b.Isel.vterm with
      | Isel.Vbr (r, _, _) -> touch r
      | Isel.Vjmp _ | Isel.Vret -> ());
      incr pos;
      let block_end = !pos - 1 in
      Bitset.iter (extend block_start) live_in.(i);
      Bitset.iter (extend block_end) live_out.(i))
    blocks;
  (* A counting sort on [lo], registers ascending within a position:
     exactly the order of ascending [lo], then register. *)
  let start = Array.make (!pos + 1) 0 in
  Array.iteri (fun k h -> if h >= 0 then start.(lo.(k) + 1) <- start.(lo.(k) + 1) + 1) hi;
  for p = 1 to !pos do
    start.(p) <- start.(p) + start.(p - 1)
  done;
  let order = Array.make start.(!pos) 0 in
  Array.iteri
    (fun k h ->
      if h >= 0 then begin
        order.(start.(lo.(k))) <- k;
        start.(lo.(k)) <- start.(lo.(k)) + 1
      end)
    hi;
  { lo; hi; weight; order }

(* --- linear scan --- *)

(* The assignment, by [v - first_vreg]: a physical register, or a
   spill slot [s] stored as [-2 - s].  Every register the code names
   has an interval, so the rewrite meets no [unassigned] one. *)
let unassigned = -1

let slot_code s = -2 - s

let slot_of code = -2 - code

let allocate itv =
  let { lo; hi; weight; order } = itv in
  let assign = Array.make (Array.length lo) unassigned in
  (* Free registers as a stack, top at the end: r8 is taken first, and
     a freed register is the next one taken. *)
  let free = Array.of_list (List.rev Mach.allocatable) in
  let nfree = ref (Array.length free) in
  (* Registers holding a physical register, ascending [hi]; one with
     equal [hi] goes after those already there. *)
  let active = Array.make (Array.length free) 0 and nactive = ref 0 in
  let insert_active k =
    let p = ref !nactive in
    while !p > 0 && hi.(active.(!p - 1)) > hi.(k) do
      active.(!p) <- active.(!p - 1);
      decr p
    done;
    active.(!p) <- k;
    incr nactive
  in
  let remove_active p =
    Array.blit active (p + 1) active p (!nactive - p - 1);
    decr nactive
  in
  let next_slot = ref 0 in
  let fresh_slot () =
    let s = !next_slot in
    next_slot := s + 1;
    slot_code s
  in
  Array.iter
    (fun k ->
      (* Expire: [active] is sorted by [hi], so the intervals ending
         before this one starts are a prefix. *)
      let expired = ref 0 in
      while !expired < !nactive && hi.(active.(!expired)) < lo.(k) do
        free.(!nfree) <- assign.(active.(!expired));
        incr nfree;
        incr expired
      done;
      Array.blit active !expired active 0 (!nactive - !expired);
      nactive := !nactive - !expired;
      if !nfree > 0 then begin
        decr nfree;
        assign.(k) <- free.(!nfree);
        insert_active k
      end
      else begin
        (* Spill the cheapest interval: the one with the lowest
           profile-weighted use count, ties broken toward the one
           ending last (the classic linear-scan choice).  [-1] is the
           new interval itself. *)
        let victim = ref (-1) in
        for p = 0 to !nactive - 1 do
          let x = active.(p) in
          let best = if !victim < 0 then k else active.(!victim) in
          match Float.compare weight.(x) weight.(best) with
          | 0 -> if hi.(x) > hi.(best) then victim := p
          | c -> if c < 0 then victim := p
        done;
        if !victim < 0 then assign.(k) <- fresh_slot ()
        else begin
          let v = active.(!victim) in
          assign.(k) <- assign.(v);
          assign.(v) <- fresh_slot ();
          remove_active !victim;
          insert_active k
        end
      end)
    order;
  (assign, !next_slot)

(* --- rewrite --- *)

let allocatable_mask = List.fold_left (fun m r -> m lor (1 lsl r)) 0 Mach.allocatable

(* One pass per block, straight into the new body.  Spilled sources
   load into scratch 1 then scratch 2, in [Mach.uses] order (a
   register read twice loads once); a spilled destination stores from
   scratch 3, so a register both read and written (e.g.
   [Op (op, d, d, b)] with d spilled) loads into scratch 1 and stores
   from scratch 3.  Slot [s] lives at sp + outgoing + s (see Codegen's
   frame layout).  Returns the allocatable registers the code names,
   as a bitmask. *)
let rewrite (vc : Isel.vcode) assign =
  let slot_off code = vc.Isel.max_outgoing + slot_of code in
  let used = ref 0 in
  let phys p =
    used := !used lor ((1 lsl p) land allocatable_mask);
    p
  in
  (* The instruction being rewritten: its spilled sources (register
     and assignment, [-1] for none) and spilled destination. *)
  let src1 = ref (-1) and slot1 = ref 0 and src2 = ref (-1) and slot2 = ref 0 in
  let dst_slot = ref unassigned in
  let use r =
    if not (is_vreg r) then phys r
    else begin
      let a = assign.(r - Mach.first_vreg) in
      if a >= 0 then phys a
      else if r = !src1 then Mach.reg_scratch1
      else if !src1 < 0 then begin
        src1 := r;
        slot1 := a;
        Mach.reg_scratch1
      end
      else begin
        (* No instruction reads more than two registers. *)
        src2 := r;
        slot2 := a;
        Mach.reg_scratch2
      end
    end
  in
  let def d =
    if not (is_vreg d) then phys d
    else begin
      let a = assign.(d - Mach.first_vreg) in
      if a >= 0 then phys a
      else begin
        dst_slot := a;
        Mach.reg_scratch3
      end
    end
  in
  let rewrite_instr i rest =
    src1 := -1;
    src2 := -1;
    dst_slot := unassigned;
    let i =
      match i with
      | Mach.Li (d, c) -> Mach.Li (def d, c)
      | Mach.Mv (d, s) ->
        let s = use s in
        Mach.Mv (def d, s)
      | Mach.Op (op, d, a, b) ->
        let a = use a in
        let b = use b in
        Mach.Op (op, def d, a, b)
      | Mach.Opi (op, d, s, c) ->
        let s = use s in
        Mach.Opi (op, def d, s, c)
      | Mach.Un (op, d, s) ->
        let s = use s in
        Mach.Un (op, def d, s)
      | Mach.Ld (d, b, o) ->
        let b = use b in
        Mach.Ld (def d, b, o)
      | Mach.St (v, b, o) ->
        let v = use v in
        let b = use b in
        Mach.St (v, b, o)
      | Mach.Lga (d, s) -> Mach.Lga (def d, s)
      | Mach.Bz (r, t) -> Mach.Bz (use r, t)
      | Mach.Bnz (r, t) -> Mach.Bnz (use r, t)
      | ( Mach.B _ | Mach.Call_sym _ | Mach.Call_abs _ | Mach.Sys _ | Mach.Ret
        | Mach.Adjsp _ | Mach.Cnt _ | Mach.Halt ) as i -> i
    in
    let rest =
      if !dst_slot = unassigned then rest
      else Mach.St (Mach.reg_scratch3, Mach.reg_sp, slot_off !dst_slot) :: rest
    in
    let rest = i :: rest in
    let rest =
      if !src2 < 0 then rest else Mach.Ld (Mach.reg_scratch2, Mach.reg_sp, slot_off !slot2) :: rest
    in
    if !src1 < 0 then rest else Mach.Ld (Mach.reg_scratch1, Mach.reg_sp, slot_off !slot1) :: rest
  in
  List.iter
    (fun (b : Isel.vblock) ->
      let tail =
        match b.Isel.vterm with
        | Isel.Vbr (r, ifso, ifnot) ->
          let a = if is_vreg r then assign.(r - Mach.first_vreg) else r in
          if a >= 0 then begin
            b.Isel.vterm <- Isel.Vbr (phys a, ifso, ifnot);
            []
          end
          else begin
            b.Isel.vterm <- Isel.Vbr (Mach.reg_scratch1, ifso, ifnot);
            [ Mach.Ld (Mach.reg_scratch1, Mach.reg_sp, slot_off a) ]
          end
        | Isel.Vjmp _ | Isel.Vret -> []
      in
      b.Isel.body <- List.fold_right rewrite_instr b.Isel.body tail)
    vc.Isel.vblocks;
  !used

let intervals vc =
  let itv = compute_intervals vc in
  Array.to_list
    (Array.map
       (fun k -> (k + Mach.first_vreg, itv.lo.(k), itv.hi.(k), itv.weight.(k)))
       itv.order)

let run vc =
  let assign, slots = allocate (compute_intervals vc) in
  let used = rewrite vc assign in
  {
    vcode = vc;
    spill_slots = slots;
    used_callee_saved = List.filter (fun r -> used land (1 lsl r) <> 0) Mach.allocatable;
    (* Every spilled register has a slot of its own. *)
    spilled_vregs = slots;
  }
