(* Reference oracles for the LLO back end: verbatim copies of
   [Sched], [Regalloc], [Peephole] and [Codegen] as they were before
   they moved onto dense, register-indexed state (lists of operands,
   a Hashtbl assignment, list-built segments and bodies).  The
   [backend] suite holds the dense passes to these: equal machine
   code, counts and callee-saved sets on every routine it tries.  The
   one helper the dense code no longer needs from [Mach],
   [map_defs_uses], is copied here with them. *)

module Mach = struct
  include Cmo_llo.Mach

  let map_defs_uses ~fdef ~fuse = function
    | Li (d, i) -> Li (fdef d, i)
    | Mv (d, s) -> Mv (fdef d, fuse s)
    | Op (op, d, a, b) -> Op (op, fdef d, fuse a, fuse b)
    | Opi (op, d, s, i) -> Opi (op, fdef d, fuse s, i)
    | Un (op, d, s) -> Un (op, fdef d, fuse s)
    | Ld (d, b, o) -> Ld (fdef d, fuse b, o)
    | St (v, b, o) -> St (fuse v, fuse b, o)
    | Lga (d, s) -> Lga (fdef d, s)
    | Bz (r, t) -> Bz (fuse r, t)
    | Bnz (r, t) -> Bnz (fuse r, t)
    | ( B _ | Call_sym _ | Call_abs _ | Sys _ | Ret | Adjsp _ | Cnt _ | Halt ) as i
      -> i
end

module Isel = Cmo_llo.Isel

module Sched = struct
  let is_barrier = function
    | Mach.Call_sym _ | Mach.Call_abs _ | Mach.Sys _ | Mach.Cnt _ | Mach.Adjsp _
    | Mach.B _ | Mach.Bz _ | Mach.Bnz _ | Mach.Ret | Mach.Halt -> true
    | Mach.Li _ | Mach.Mv _ | Mach.Op _ | Mach.Opi _ | Mach.Un _ | Mach.Ld _
    | Mach.St _ | Mach.Lga _ -> false

  let is_load = function Mach.Ld _ -> true | _ -> false

  (* Per-register dependence state, shared by every segment of a
     routine and indexed by register (every register, physical or
     virtual, is below [next_vreg]): the segment index of the
     register's last writer (-1 for none) and the readers since that
     write.  A segment resets the slots it touched. *)
  type regs = { writer : int array; readers : int list array }

  (* Schedule one barrier-free segment; returns instructions in the new
     order plus how many changed relative position. *)
  let schedule_segment regs instrs =
    let n = Array.length instrs in
    if n <= 2 then (Array.to_list instrs, 0)
    else begin
      (* Dependence edges i -> j (i before j), built in one pass: j
         depends on the last writer of each register it reads or
         writes, on every reader since that write of a register it
         writes, on the last store, and — for a store — on every load
         since that store.  Each is one of the pairwise RAW/WAR/WAW or
         memory-order pairs, and every pair the pairwise test would add
         is implied by a chain of these, so critical-path heights and
         the ready set are the same.  [last_src.(i) = j] marks an edge
         i -> j already added. *)
      let succs = Array.make n [] in
      let preds_count = Array.make n 0 in
      let last_src = Array.make n (-1) in
      let edge i j =
        if i >= 0 && last_src.(i) <> j then begin
          last_src.(i) <- j;
          succs.(i) <- j :: succs.(i);
          preds_count.(j) <- preds_count.(j) + 1
        end
      in
      let uses = Array.map Mach.uses instrs and defs = Array.map Mach.defs instrs in
      let last_store = ref (-1) and loads_since = ref [] in
      for j = 0 to n - 1 do
        List.iter (fun r -> edge regs.writer.(r) j) uses.(j);
        List.iter
          (fun r ->
            edge regs.writer.(r) j;
            List.iter (fun i -> edge i j) regs.readers.(r))
          defs.(j);
        List.iter (fun r -> regs.readers.(r) <- j :: regs.readers.(r)) uses.(j);
        List.iter
          (fun r ->
            regs.writer.(r) <- j;
            regs.readers.(r) <- [])
          defs.(j);
        match instrs.(j) with
        | Mach.Ld _ ->
          edge !last_store j;
          loads_since := j :: !loads_since
        | Mach.St _ ->
          edge !last_store j;
          List.iter (fun i -> edge i j) !loads_since;
          last_store := j;
          loads_since := []
        | _ -> ()
      done;
      let reset r =
        regs.writer.(r) <- -1;
        regs.readers.(r) <- []
      in
      Array.iter (List.iter reset) uses;
      Array.iter (List.iter reset) defs;
      (* Critical-path height: loads weigh extra (their consumers wait). *)
      let height = Array.make n 1 in
      for i = n - 1 downto 0 do
        let weight = if is_load instrs.(i) then 2 else 1 in
        let best =
          List.fold_left (fun acc j -> max acc height.(j)) 0 succs.(i)
        in
        height.(i) <- weight + best
      done;
      (* Greedy list scheduling. *)
      let scheduled = ref [] in
      let emitted = Array.make n false in
      let remaining = ref n in
      let last_load_dst = ref (-1) in
      let moved = ref 0 in
      let next_orig = ref 0 in
      while !remaining > 0 do
        (* Ready = all predecessors emitted. *)
        let ready = ref [] in
        for i = n - 1 downto 0 do
          if (not emitted.(i)) && preds_count.(i) = 0 then ready := i :: !ready
        done;
        let stalls i =
          !last_load_dst >= 0 && List.mem !last_load_dst uses.(i)
        in
        let better a b =
          (* Prefer non-stalling, then higher critical path, then
             original order. *)
          match (stalls a, stalls b) with
          | false, true -> true
          | true, false -> false
          | _ ->
            if height.(a) <> height.(b) then height.(a) > height.(b) else a < b
        in
        let pick =
          match !ready with
          | [] -> assert false
          | first :: rest ->
            List.fold_left (fun best i -> if better i best then i else best) first rest
        in
        emitted.(pick) <- true;
        List.iter (fun j -> preds_count.(j) <- preds_count.(j) - 1) succs.(pick);
        scheduled := instrs.(pick) :: !scheduled;
        last_load_dst :=
          (match instrs.(pick) with Mach.Ld (d, _, _) -> d | _ -> -1);
        if pick <> !next_orig then incr moved;
        (* Track the next original index among unemitted for the moved
           metric. *)
        while !next_orig < n && emitted.(!next_orig) do
          incr next_orig
        done;
        decr remaining
      done;
      (List.rev !scheduled, !moved)
    end

  let run (vc : Isel.vcode) =
    let moved = ref 0 in
    let regs =
      { writer = Array.make vc.Isel.next_vreg (-1); readers = Array.make vc.Isel.next_vreg [] }
    in
    List.iter
      (fun (b : Isel.vblock) ->
        (* Split at barriers; schedule each pure segment. *)
        let out = ref [] in
        let segment = ref [] in
        let flush () =
          let instrs = Array.of_list (List.rev !segment) in
          let ordered, m = schedule_segment regs instrs in
          moved := !moved + m;
          out := List.rev_append ordered !out;
          segment := []
        in
        List.iter
          (fun i ->
            if is_barrier i then begin
              flush ();
              out := i :: !out
            end
            else segment := i :: !segment)
          b.Isel.body;
        flush ();
        b.Isel.body <- List.rev !out)
      vc.Isel.vblocks;
    !moved
end

module Regalloc = struct
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
end

module Peephole = struct
  module Instr = Cmo_il.Instr

  let log2_exact v =
    if Int64.compare v 1L <= 0 then None
    else begin
      let rec go shift =
        if shift > 62 then None
        else begin
          let p = Int64.shift_left 1L shift in
          if Int64.equal p v then Some shift
          else if Int64.compare p v > 0 then None
          else go (shift + 1)
        end
      in
      go 1
    end

  let rewrite_instr count i =
    match i with
    | Mach.Opi (Instr.Mul, d, s, v) -> (
      match log2_exact v with
      | Some shift ->
        incr count;
        Some (Mach.Opi (Instr.Shl, d, s, Int64.of_int shift))
      | None ->
        if Int64.equal v 1L then begin
          incr count;
          Some (Mach.Mv (d, s))
        end
        else if Int64.equal v 0L then begin
          incr count;
          Some (Mach.Li (d, 0L))
        end
        else Some i)
    | Mach.Opi ((Instr.Add | Instr.Sub | Instr.Or | Instr.Xor | Instr.Shl | Instr.Shr), d, s, 0L) ->
      incr count;
      Some (Mach.Mv (d, s))
    | Mach.Opi (Instr.And, d, _, 0L) ->
      incr count;
      Some (Mach.Li (d, 0L))
    | Mach.Mv (d, s) when d = s ->
      incr count;
      None
    | _ -> Some i

  (* Delete [Li r, c] when the previous instruction already was
     [Li r, c] (same register, same constant, no intervening def). *)
  let dedup_li count instrs =
    let rec go prev acc = function
      | [] -> List.rev acc
      | (Mach.Li (d, c) as i) :: rest -> (
        match prev with
        | Some (pd, pc) when pd = d && Int64.equal pc c ->
          incr count;
          go prev acc rest
        | _ -> go (Some (d, c)) (i :: acc) rest)
      | i :: rest -> go None (i :: acc) rest
    in
    go None [] instrs

  let run (vc : Isel.vcode) =
    let count = ref 0 in
    List.iter
      (fun (b : Isel.vblock) ->
        b.Isel.body <-
          List.filter_map (rewrite_instr count) b.Isel.body |> dedup_li count)
      vc.Isel.vblocks;
    !count
end

module Codegen = struct
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
end
