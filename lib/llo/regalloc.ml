module Bitset = Cmo_support.Bitset

type result = {
  vcode : Isel.vcode;
  spill_slots : int;
  used_callee_saved : Mach.reg list;
  spilled_vregs : int;
}

let is_vreg r = r >= Mach.first_vreg

(* --- liveness over vblocks --- *)

let term_uses = function
  | Isel.Vbr (r, _, _) -> if is_vreg r then [ r ] else []
  | Isel.Vjmp _ | Isel.Vret -> []

let successors = function
  | Isel.Vjmp l -> [ l ]
  | Isel.Vbr (_, a, b) -> [ a; b ]
  | Isel.Vret -> []

(* Live sets over virtual registers, numbered [v - first_vreg], one
   per block in layout order.  Physical registers are never
   tracked. *)
let block_liveness (vc : Isel.vcode) =
  let nbits = vc.Isel.next_vreg - Mach.first_vreg in
  let blocks = Array.of_list vc.Isel.vblocks in
  let index = Hashtbl.create (2 * Array.length blocks) in
  Array.iteri (fun i (b : Isel.vblock) -> Hashtbl.replace index b.Isel.vlabel i) blocks;
  let succs =
    Array.map
      (fun (b : Isel.vblock) ->
        Array.of_list (List.filter_map (Hashtbl.find_opt index) (successors b.Isel.vterm)))
      blocks
  in
  let gen_kill (b : Isel.vblock) =
    let gen = Bitset.create nbits and kill = Bitset.create nbits in
    List.iter (fun v -> Bitset.add gen (v - Mach.first_vreg)) (term_uses b.Isel.vterm);
    List.iter
      (fun i ->
        List.iter
          (fun d ->
            if is_vreg d then begin
              Bitset.remove gen (d - Mach.first_vreg);
              Bitset.add kill (d - Mach.first_vreg)
            end)
          (Mach.defs i);
        List.iter
          (fun u -> if is_vreg u then Bitset.add gen (u - Mach.first_vreg))
          (Mach.uses i))
      (List.rev b.Isel.body);
    (gen, kill)
  in
  let gen_kill = Array.map gen_kill blocks in
  let live_in, live_out =
    Cmo_support.Dataflow.backward ~nbits ~succs ~gen:(Array.map fst gen_kill)
      ~kill:(Array.map snd gen_kill)
  in
  (live_in, live_out)

(* --- intervals --- *)

type interval = {
  vreg : int;
  mutable lo : int;
  mutable hi : int;
  mutable weight : float;
      (* Profile-weighted spill cost: each use/def adds the executing
         block's frequency (1 when unprofiled), so the allocator
         evicts the register whose memory traffic would be cheapest —
         the PBO improvement to the allocation cost model the paper's
         section 2 describes. *)
}

let compute_intervals (vc : Isel.vcode) =
  let live_in, live_out = block_liveness vc in
  (* Endpoints and weights by [v - first_vreg]; [hi < 0] means the
     register has not been seen. *)
  let n = vc.Isel.next_vreg - Mach.first_vreg in
  let lo = Array.make n max_int and hi = Array.make n (-1) in
  let weight = Array.make n 0.0 in
  let touch v pos w =
    let k = v - Mach.first_vreg in
    if pos < lo.(k) then lo.(k) <- pos;
    if pos > hi.(k) then hi.(k) <- pos;
    weight.(k) <- weight.(k) +. w
  in
  let extend v pos = touch v pos 0.0 in
  let pos = ref 0 in
  List.iteri
    (fun i (b : Isel.vblock) ->
      let block_start = !pos in
      let w = Float.max 1.0 b.Isel.vfreq in
      List.iter
        (fun i ->
          List.iter (fun d -> if is_vreg d then touch d !pos w) (Mach.defs i);
          List.iter (fun u -> if is_vreg u then touch u !pos w) (Mach.uses i);
          incr pos)
        b.Isel.body;
      List.iter (fun u -> touch u !pos w) (term_uses b.Isel.vterm);
      incr pos;
      let block_end = !pos - 1 in
      Bitset.iter (fun v -> extend (v + Mach.first_vreg) block_start) live_in.(i);
      Bitset.iter (fun v -> extend (v + Mach.first_vreg) block_end) live_out.(i))
    vc.Isel.vblocks;
  let intervals = ref [] in
  for k = n - 1 downto 0 do
    if hi.(k) >= 0 then
      intervals :=
        { vreg = k + Mach.first_vreg; lo = lo.(k); hi = hi.(k); weight = weight.(k) }
        :: !intervals
  done;
  !intervals
  |> List.sort (fun a b ->
         match compare a.lo b.lo with 0 -> compare a.vreg b.vreg | c -> c)

(* --- linear scan --- *)

type assignment = Phys of Mach.reg | Slot of int

let allocate intervals =
  let assignment : (int, assignment) Hashtbl.t = Hashtbl.create 64 in
  let free = ref Mach.allocatable in
  let active = ref [] in  (* sorted ascending by hi *)
  let next_slot = ref 0 in
  let insert_active itv =
    let rec go = function
      | [] -> [ itv ]
      | x :: rest when x.hi <= itv.hi -> x :: go rest
      | rest -> itv :: rest
    in
    active := go !active
  in
  let expire current_lo =
    let expired, live =
      List.partition (fun itv -> itv.hi < current_lo) !active
    in
    List.iter
      (fun itv ->
        match Hashtbl.find assignment itv.vreg with
        | Phys r -> free := r :: !free
        | Slot _ -> ())
      expired;
    active := live
  in
  let fresh_slot () =
    let s = !next_slot in
    next_slot := s + 1;
    s
  in
  List.iter
    (fun itv ->
      expire itv.lo;
      match !free with
      | r :: rest ->
        free := rest;
        Hashtbl.replace assignment itv.vreg (Phys r);
        insert_active itv
      | [] -> (
        (* Spill the cheapest interval: the one with the lowest
           profile-weighted use count, ties broken toward the one
           ending last (the classic linear-scan choice). *)
        let cheaper a b =
          match compare a.weight b.weight with
          | 0 -> compare b.hi a.hi
          | c -> c
        in
        let victim =
          List.fold_left
            (fun best x -> if cheaper x best < 0 then x else best)
            itv !active
        in
        if victim == itv then
          Hashtbl.replace assignment itv.vreg (Slot (fresh_slot ()))
        else begin
          let victim_reg =
            match Hashtbl.find assignment victim.vreg with
            | Phys r -> r
            | Slot _ -> assert false
          in
          Hashtbl.replace assignment victim.vreg (Slot (fresh_slot ()));
          active := List.filter (fun x -> x != victim) !active;
          Hashtbl.replace assignment itv.vreg (Phys victim_reg);
          insert_active itv
        end))
    intervals;
  (assignment, !next_slot)

(* --- rewrite --- *)

(* Slot [s] lives at sp + outgoing + s (see Codegen's frame layout). *)
let rewrite (vc : Isel.vcode) assignment =
  let slot_off s = vc.Isel.max_outgoing + s in
  let lookup v =
    if is_vreg v then Hashtbl.find_opt assignment v else Some (Phys v)
  in
  let used = Hashtbl.create 20 in
  let note_phys r = if List.mem r Mach.allocatable then Hashtbl.replace used r () in
  let rewrite_instr i =
    (* Map spilled uses through scratch registers, spilled defs
       through scratch 3. *)
    let loads = ref [] in
    let stores = ref [] in
    let scratch_uses = ref [ Mach.reg_scratch1; Mach.reg_scratch2 ] in
    (* Register -> scratch maps as association lists: an instruction
       has at most two sources and one destination. *)
    let use_map = ref [] in
    List.iter
      (fun u ->
        match lookup u with
        | Some (Slot s) when not (List.mem_assoc u !use_map) ->
          let scratch =
            match !scratch_uses with
            | r :: rest ->
              scratch_uses := rest;
              r
            | [] -> invalid_arg "Regalloc: out of scratch registers"
          in
          use_map := (u, scratch) :: !use_map;
          loads := Mach.Ld (scratch, Mach.reg_sp, slot_off s) :: !loads
        | Some (Slot _) | Some (Phys _) | None -> ())
      (Mach.uses i);
    let def_map = ref [] in
    List.iter
      (fun d ->
        match lookup d with
        | Some (Slot s) ->
          def_map := (d, Mach.reg_scratch3) :: !def_map;
          stores := Mach.St (Mach.reg_scratch3, Mach.reg_sp, slot_off s) :: !stores
        | Some (Phys _) | None -> ())
      (Mach.defs i);
    let map_with table r =
      match List.assoc_opt r !table with
      | Some scratch -> scratch
      | None -> (
        match lookup r with
        | Some (Phys p) ->
          note_phys p;
          p
        | Some (Slot _) | None -> r)
    in
    (* Sources map through the use scratch, the destination through
       the def scratch: a register both read and written (e.g.
       [Op (op, d, d, b)] with d spilled) loads into scratch1 and
       stores from scratch3. *)
    List.rev !loads
    @ [ Mach.map_defs_uses ~fdef:(map_with def_map) ~fuse:(map_with use_map) i ]
    @ List.rev !stores
  in
  List.iter
    (fun (b : Isel.vblock) ->
      b.Isel.body <- List.concat_map rewrite_instr b.Isel.body;
      (match b.Isel.vterm with
      | Isel.Vbr (r, ifso, ifnot) -> (
        match lookup r with
        | Some (Slot s) ->
          b.Isel.body <-
            b.Isel.body @ [ Mach.Ld (Mach.reg_scratch1, Mach.reg_sp, slot_off s) ];
          b.Isel.vterm <- Isel.Vbr (Mach.reg_scratch1, ifso, ifnot)
        | Some (Phys p) ->
          note_phys p;
          b.Isel.vterm <- Isel.Vbr (p, ifso, ifnot)
        | None -> ())
      | Isel.Vjmp _ | Isel.Vret -> ()))
    vc.Isel.vblocks;
  used

let intervals vc =
  List.map (fun itv -> (itv.vreg, itv.lo, itv.hi, itv.weight)) (compute_intervals vc)

let run vc =
  let intervals = compute_intervals vc in
  let assignment, slots = allocate intervals in
  let spilled =
    Hashtbl.fold
      (fun _ a acc -> match a with Slot _ -> acc + 1 | Phys _ -> acc)
      assignment 0
  in
  let used = rewrite vc assignment in
  let used_callee_saved =
    List.filter (fun r -> Hashtbl.mem used r) Mach.allocatable
  in
  { vcode = vc; spill_slots = slots; used_callee_saved; spilled_vregs = spilled }
