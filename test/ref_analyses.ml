(* Reference oracles for the per-routine CFG analyses: the list- and
   Hashtbl-based implementations the dense array/bitset versions in
   [lib/hlo] and [lib/llo] replaced, kept verbatim so the property
   suite in [test_analyses.ml] can hold the new code to their exact
   results.  Not used by the compiler. *)

module Instr = Cmo_il.Instr
module Func = Cmo_il.Func
module Isel = Cmo_llo.Isel
module Mach = Cmo_llo.Mach

(* The Hashtbl-returning CFG tables [Func] used to provide; the
   oracles here and in [Ref_transforms] are written against them. *)
module Tables = struct
  let block_table t =
    let table = Hashtbl.create (List.length t.Func.blocks) in
    List.iter
      (fun b -> if not (Hashtbl.mem table b.Func.label) then Hashtbl.add table b.Func.label b)
      t.Func.blocks;
    table

  let predecessors t =
    let preds = Hashtbl.create 16 in
    List.iter (fun b -> Hashtbl.replace preds b.Func.label []) t.Func.blocks;
    (* Built reversed, then flipped once: layout order without an
       append per edge. *)
    List.iter
      (fun b ->
        List.iter
          (fun succ ->
            let ps = Option.value ~default:[] (Hashtbl.find_opt preds succ) in
            Hashtbl.replace preds succ (b.Func.label :: ps))
          (Instr.targets b.Func.term))
      t.Func.blocks;
    Hashtbl.filter_map_inplace (fun _ ps -> Some (List.rev ps)) preds;
    preds

  let reachable t =
    let blocks = block_table t in
    let seen = Hashtbl.create 16 in
    let rec visit label =
      if not (Hashtbl.mem seen label) then begin
        Hashtbl.replace seen label ();
        match Hashtbl.find_opt blocks label with
        | Some b -> List.iter visit (Instr.targets b.Func.term)
        | None -> ()
      end
    in
    if t.Func.blocks <> [] then visit t.Func.entry;
    seen
end

module Dominators = struct
  type t = {
    entry : Instr.label;
    idoms : (Instr.label, Instr.label) Hashtbl.t;  (* entry maps to itself *)
    rpo : Instr.label list;
    rpo_index : (Instr.label, int) Hashtbl.t;
  }

  let compute_rpo (f : Func.t) =
    let visited = Hashtbl.create 16 in
    let order = ref [] in
    let rec dfs label =
      if not (Hashtbl.mem visited label) then begin
        Hashtbl.replace visited label ();
        (match Func.find_block_opt f label with
        | Some b -> List.iter dfs (Instr.targets b.Func.term)
        | None -> ());
        order := label :: !order
      end
    in
    if f.Func.blocks <> [] then dfs f.Func.entry;
    !order

  let compute (f : Func.t) =
    let rpo = compute_rpo f in
    let rpo_index = Hashtbl.create 16 in
    List.iteri (fun i l -> Hashtbl.replace rpo_index l i) rpo;
    let preds = Tables.predecessors f in
    let idoms = Hashtbl.create 16 in
    Hashtbl.replace idoms f.Func.entry f.Func.entry;
    let rec intersect a b =
      if a = b then a
      else begin
        let ia = Hashtbl.find rpo_index a and ib = Hashtbl.find rpo_index b in
        if ia > ib then intersect (Hashtbl.find idoms a) b
        else intersect a (Hashtbl.find idoms b)
      end
    in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun label ->
          if label <> f.Func.entry then begin
            let ps =
              List.filter
                (fun p -> Hashtbl.mem rpo_index p && Hashtbl.mem idoms p)
                (Option.value ~default:[] (Hashtbl.find_opt preds label))
            in
            match ps with
            | [] -> ()
            | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if Hashtbl.find_opt idoms label <> Some new_idom then begin
                Hashtbl.replace idoms label new_idom;
                changed := true
              end
            end)
        rpo
    done;
    { entry = f.Func.entry; idoms; rpo; rpo_index }

  let idom t label =
    if label = t.entry then None
    else Hashtbl.find_opt t.idoms label

  let dominates t a b =
    if not (Hashtbl.mem t.rpo_index a && Hashtbl.mem t.rpo_index b) then false
    else begin
      let rec walk x = if x = a then true else if x = t.entry then false else walk (Hashtbl.find t.idoms x) in
      walk b
    end

  let reverse_postorder t = t.rpo

  let modeled_bytes t = 64 + (48 * List.length t.rpo)
end

module Liveness = struct
  (* Register sets as Bytes bitmaps: next_reg is typically small and
     dense, and bitmaps make the transfer function cheap. *)
  module Bitset = struct
    type t = Bytes.t

    let create n = Bytes.make ((n / 8) + 1) '\000'

    let mem t r = Char.code (Bytes.get t (r / 8)) land (1 lsl (r mod 8)) <> 0

    let add t r =
      Bytes.set t (r / 8)
        (Char.chr (Char.code (Bytes.get t (r / 8)) lor (1 lsl (r mod 8))))

    let remove t r =
      Bytes.set t (r / 8)
        (Char.chr (Char.code (Bytes.get t (r / 8)) land lnot (1 lsl (r mod 8)) land 0xff))

    let union_into ~into src =
      let changed = ref false in
      for i = 0 to Bytes.length into - 1 do
        let a = Char.code (Bytes.get into i) and b = Char.code (Bytes.get src i) in
        let c = a lor b in
        if c <> a then begin
          Bytes.set into i (Char.chr c);
          changed := true
        end
      done;
      !changed

    let copy = Bytes.copy

    let elements t n =
      let out = ref [] in
      for r = n - 1 downto 0 do
        if mem t r then out := r :: !out
      done;
      !out
  end

  type t = {
    nregs : int;
    live_in : (Instr.label, Bitset.t) Hashtbl.t;
    live_out : (Instr.label, Bitset.t) Hashtbl.t;
  }

  let block_transfer nregs (b : Func.block) live_out =
    (* live_in = (live_out - defs) + uses, walking instructions
       backward. *)
    let live = Bitset.copy live_out in
    List.iter (fun r -> Bitset.add live r) (Instr.term_uses b.Func.term);
    List.iter
      (fun i ->
        Option.iter (fun d -> Bitset.remove live d) (Instr.def i);
        List.iter (fun u -> Bitset.add live u) (Instr.uses i))
      (List.rev b.Func.instrs);
    ignore nregs;
    live

  let compute (f : Func.t) =
    let nregs = f.Func.next_reg in
    let live_in = Hashtbl.create 16 in
    let live_out = Hashtbl.create 16 in
    List.iter
      (fun (b : Func.block) ->
        Hashtbl.replace live_in b.Func.label (Bitset.create nregs);
        Hashtbl.replace live_out b.Func.label (Bitset.create nregs))
      f.Func.blocks;
    let changed = ref true in
    while !changed do
      changed := false;
      (* Backward: iterate blocks in reverse layout order. *)
      List.iter
        (fun (b : Func.block) ->
          let out = Hashtbl.find live_out b.Func.label in
          List.iter
            (fun succ ->
              match Hashtbl.find_opt live_in succ with
              | Some succ_in -> if Bitset.union_into ~into:out succ_in then changed := true
              | None -> ())
            (Instr.targets b.Func.term);
          let new_in = block_transfer nregs b out in
          let old_in = Hashtbl.find live_in b.Func.label in
          if Bitset.union_into ~into:old_in new_in then changed := true)
        (List.rev f.Func.blocks)
    done;
    { nregs; live_in; live_out }

  let live_out t label =
    match Hashtbl.find_opt t.live_out label with
    | Some s -> Bitset.elements s t.nregs
    | None -> []

  let live_in t label =
    match Hashtbl.find_opt t.live_in label with
    | Some s -> Bitset.elements s t.nregs
    | None -> []

  let live_out_mem t label r =
    match Hashtbl.find_opt t.live_out label with
    | Some s -> r < t.nregs && Bitset.mem s r
    | None -> false

  let modeled_bytes t = 64 + (2 * Hashtbl.length t.live_in * ((t.nregs / 8) + 16))
end

module Loopinfo = struct
  type loop = {
    header : Instr.label;
    body : Instr.label list;
    depth : int;
  }

  type t = {
    all : loop list;
    innermost : (Instr.label, loop) Hashtbl.t;
  }

  let compute (f : Func.t) =
    let doms = Dominators.compute f in
    let preds = Tables.predecessors f in
    let reachable = Tables.reachable f in
    (* Collect back edges grouped by header. *)
    let bodies = Hashtbl.create 8 in  (* header -> (label, unit) Hashtbl *)
    let headers_rev = ref [] in
    List.iter
      (fun (b : Func.block) ->
        if Hashtbl.mem reachable b.Func.label then
          List.iter
            (fun succ ->
              if Dominators.dominates doms succ b.Func.label then begin
                (* back edge b -> succ *)
                let body =
                  match Hashtbl.find_opt bodies succ with
                  | Some body -> body
                  | None ->
                    let body = Hashtbl.create 8 in
                    Hashtbl.replace body succ ();
                    Hashtbl.replace bodies succ body;
                    headers_rev := succ :: !headers_rev;
                    body
                in
                (* Walk predecessors from the back-edge source up to the
                   header. *)
                let rec pull label =
                  if not (Hashtbl.mem body label) then begin
                    Hashtbl.replace body label ();
                    List.iter pull
                      (Option.value ~default:[] (Hashtbl.find_opt preds label))
                  end
                in
                pull b.Func.label
              end)
            (Instr.targets b.Func.term))
      f.Func.blocks;
    let headers = List.rev !headers_rev in
    (* Depth: number of loop bodies a header is contained in. *)
    let body_labels header =
      let body = Hashtbl.find bodies header in
      List.filter_map
        (fun (b : Func.block) ->
          if Hashtbl.mem body b.Func.label then Some b.Func.label else None)
        f.Func.blocks
    in
    let depth_of_header h =
      List.length
        (List.filter
           (fun h' -> h' <> h && Hashtbl.mem (Hashtbl.find bodies h') h)
           headers)
      + 1
    in
    let all =
      List.map
        (fun h -> { header = h; body = body_labels h; depth = depth_of_header h })
        headers
      |> List.sort (fun a b ->
             match compare a.depth b.depth with
             | 0 -> compare a.header b.header
             | c -> c)
    in
    let innermost = Hashtbl.create 16 in
    (* Process outermost to innermost so deeper loops overwrite. *)
    List.iter
      (fun loop ->
        List.iter (fun label -> Hashtbl.replace innermost label loop) loop.body)
      all;
    { all; innermost }

  let loops t = t.all

  let loop_of t label = Hashtbl.find_opt t.innermost label

  let depth_of t label =
    match loop_of t label with Some l -> l.depth | None -> 0

  let modeled_bytes t =
    List.fold_left (fun acc l -> acc + 32 + (16 * List.length l.body)) 64 t.all
end

module Regalloc = struct
  let is_vreg r = r >= Mach.first_vreg

  (* --- liveness over vblocks --- *)

  let term_uses = function
    | Isel.Vbr (r, _, _) -> if is_vreg r then [ r ] else []
    | Isel.Vjmp _ | Isel.Vret -> []

  let successors = function
    | Isel.Vjmp l -> [ l ]
    | Isel.Vbr (_, a, b) -> [ a; b ]
    | Isel.Vret -> []

  let block_liveness (vc : Isel.vcode) =
    let live_in : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
    let live_out : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (b : Isel.vblock) ->
        Hashtbl.replace live_in b.Isel.vlabel (Hashtbl.create 8);
        Hashtbl.replace live_out b.Isel.vlabel (Hashtbl.create 8))
      vc.Isel.vblocks;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (b : Isel.vblock) ->
          let out = Hashtbl.find live_out b.Isel.vlabel in
          List.iter
            (fun succ ->
              match Hashtbl.find_opt live_in succ with
              | Some succ_in ->
                Hashtbl.iter
                  (fun v () ->
                    if not (Hashtbl.mem out v) then begin
                      Hashtbl.replace out v ();
                      changed := true
                    end)
                  succ_in
              | None -> ())
            (successors b.Isel.vterm);
          (* in = (out - defs) + uses, backward *)
          let live = Hashtbl.copy out in
          List.iter (fun v -> Hashtbl.replace live v ()) (term_uses b.Isel.vterm);
          List.iter
            (fun i ->
              List.iter
                (fun d -> if is_vreg d then Hashtbl.remove live d)
                (Mach.defs i);
              List.iter
                (fun u -> if is_vreg u then Hashtbl.replace live u ())
                (Mach.uses i))
            (List.rev b.Isel.body);
          let in_ = Hashtbl.find live_in b.Isel.vlabel in
          Hashtbl.iter
            (fun v () ->
              if not (Hashtbl.mem in_ v) then begin
                Hashtbl.replace in_ v ();
                changed := true
              end)
            live)
        (List.rev vc.Isel.vblocks)
    done;
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
    let intervals : (int, interval) Hashtbl.t = Hashtbl.create 64 in
    let touch v pos w =
      match Hashtbl.find_opt intervals v with
      | Some itv ->
        if pos < itv.lo then itv.lo <- pos;
        if pos > itv.hi then itv.hi <- pos;
        itv.weight <- itv.weight +. w
      | None -> Hashtbl.replace intervals v { vreg = v; lo = pos; hi = pos; weight = w }
    in
    let extend v pos = touch v pos 0.0 in
    let pos = ref 0 in
    List.iter
      (fun (b : Isel.vblock) ->
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
        Hashtbl.iter
          (fun v () -> extend v block_start)
          (Hashtbl.find live_in b.Isel.vlabel);
        Hashtbl.iter
          (fun v () -> extend v block_end)
          (Hashtbl.find live_out b.Isel.vlabel))
      vc.Isel.vblocks;
    Hashtbl.fold (fun _ itv acc -> itv :: acc) intervals []
    |> List.sort (fun a b ->
           match compare a.lo b.lo with 0 -> compare a.vreg b.vreg | c -> c)

end
