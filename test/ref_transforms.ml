(* Reference oracles for the HLO scalar transforms and the LLO
   scheduler: the Hashtbl- and list-based implementations the dense
   array versions in [lib/hlo] and [lib/llo] replaced, kept as they
   were (only their CFG tables now come from [Ref_analyses.Tables])
   so the property suite in [test_transforms.ml] can hold the new
   code to their exact output.  Not used by the compiler. *)

module Instr = Cmo_il.Instr
module Func = Cmo_il.Func
module Isel = Cmo_llo.Isel
module Mach = Cmo_llo.Mach
module Tables = Ref_analyses.Tables

module Valnum = struct
  (* Value-number keys.  [Origin r] numbers the value a register holds
     on block entry; [Mem] keys carry a memory generation bumped by
     every store and call. *)
  type key =
    | Const_k of int64
    | Origin of Instr.reg
    | Unop_k of Instr.unop * int
    | Binop_k of Instr.binop * int * int
    | Load_k of string * int * int  (* base, index vn, memory generation *)

  let commutative = function
    | Instr.Add | Instr.Mul | Instr.And | Instr.Or | Instr.Xor | Instr.Eq
    | Instr.Ne -> true
    | Instr.Sub | Instr.Div | Instr.Rem | Instr.Shl | Instr.Shr | Instr.Lt
    | Instr.Le | Instr.Gt | Instr.Ge -> false

  type state = {
    key_vn : (key, int) Hashtbl.t;
    reg_vn : (Instr.reg, int) Hashtbl.t;
    rep : (int, Instr.reg) Hashtbl.t;  (* vn -> register currently holding it *)
    const_of : (int, int64) Hashtbl.t;  (* vn -> known constant value *)
    nonzero : (int, unit) Hashtbl.t;
        (* Values proved non-zero on this path (we sit under the taken
           arm of a branch on them): the fuel of redundant branch
           elimination. *)
    mutable next_vn : int;
    mutable memgen : int;  (* bumped by calls: clobbers every global *)
    base_gen : (string, int) Hashtbl.t;
        (* Memory disambiguation: distinct globals cannot alias (MiniC
           has no address-of), so a store to base [g] only invalidates
           loads of [g] — each base carries its own generation on top of
           the global one. *)
  }

  let fresh st =
    let vn = st.next_vn in
    st.next_vn <- vn + 1;
    vn

  let vn_of_key st key =
    match Hashtbl.find_opt st.key_vn key with
    | Some vn -> vn
    | None ->
      let vn = fresh st in
      Hashtbl.replace st.key_vn key vn;
      (match key with
      | Const_k c -> Hashtbl.replace st.const_of vn c
      | Origin _ | Unop_k _ | Binop_k _ | Load_k _ -> ());
      vn

  let vn_of_reg st r =
    match Hashtbl.find_opt st.reg_vn r with
    | Some vn -> vn
    | None ->
      let vn = vn_of_key st (Origin r) in
      Hashtbl.replace st.reg_vn r vn;
      if not (Hashtbl.mem st.rep vn) then Hashtbl.replace st.rep vn r;
      vn

  let vn_of_operand st = function
    | Instr.Imm c -> vn_of_key st (Const_k c)
    | Instr.Reg r -> vn_of_reg st r

  (* Redefining [d]: if it was the representative of its old value,
     that value loses its holder. *)
  let kill_def st d =
    (match Hashtbl.find_opt st.reg_vn d with
    | Some old_vn when Hashtbl.find_opt st.rep old_vn = Some d ->
      Hashtbl.remove st.rep old_vn
    | Some _ | None -> ());
    Hashtbl.remove st.reg_vn d

  let set_def st d vn =
    kill_def st d;
    Hashtbl.replace st.reg_vn d vn;
    if not (Hashtbl.mem st.rep vn) then Hashtbl.replace st.rep vn d

  let copy_state st =
    {
      key_vn = Hashtbl.copy st.key_vn;
      reg_vn = Hashtbl.copy st.reg_vn;
      rep = Hashtbl.copy st.rep;
      const_of = Hashtbl.copy st.const_of;
      nonzero = Hashtbl.copy st.nonzero;
      next_vn = st.next_vn;
      memgen = st.memgen;
      base_gen = Hashtbl.copy st.base_gen;
    }

  let fresh_state () =
    {
      key_vn = Hashtbl.create 16;
      reg_vn = Hashtbl.create 16;
      rep = Hashtbl.create 16;
      const_of = Hashtbl.create 8;
      nonzero = Hashtbl.create 4;
      next_vn = 0;
      memgen = 0;
      base_gen = Hashtbl.create 8;
    }

  let process_block st (b : Func.block) replaced =
    let gen_of base =
      st.memgen + Option.value ~default:0 (Hashtbl.find_opt st.base_gen base)
    in
    b.Func.instrs <-
      List.map
        (fun i ->
          let try_cse d key =
            let vn = vn_of_key st key in
            match Hashtbl.find_opt st.rep vn with
            | Some r when r <> d ->
              incr replaced;
              set_def st d vn;
              Instr.Move (d, Instr.Reg r)
            | Some _ | None ->
              set_def st d vn;
              i
          in
          match i with
          | Instr.Move (d, a) ->
            let vn = vn_of_operand st a in
            set_def st d vn;
            i
          | Instr.Unop (op, d, a) -> try_cse d (Unop_k (op, vn_of_operand st a))
          | Instr.Binop (op, d, a, b') ->
            let va = vn_of_operand st a and vb = vn_of_operand st b' in
            let va, vb = if commutative op && vb < va then (vb, va) else (va, vb) in
            try_cse d (Binop_k (op, va, vb))
          | Instr.Load (d, { Instr.base; index }) ->
            try_cse d (Load_k (base, vn_of_operand st index, gen_of base))
          | Instr.Store ({ Instr.base; _ }, _) ->
            Hashtbl.replace st.base_gen base (1 + gen_of base - st.memgen);
            i
          | Instr.Call c ->
            st.memgen <- st.memgen + 1;
            (match c.Instr.dst with
            | Some d -> set_def st d (fresh st)
            | None -> ());
            i
          | Instr.Probe _ -> i)
        b.Func.instrs;
    (* Redundant branch elimination (an HLO transformation the paper's
       section 3 lists): if the condition's value is already known on
       this path — a constant, or proved non-zero by a dominating
       branch in the same extended basic block — the branch folds. *)
    match b.Func.term with
    | Instr.Br { cond = Instr.Reg c; ifso; ifnot } -> (
      let vn = vn_of_reg st c in
      match Hashtbl.find_opt st.const_of vn with
      | Some 0L ->
        b.Func.term <- Instr.Jmp ifnot;
        incr replaced
      | Some _ ->
        b.Func.term <- Instr.Jmp ifso;
        incr replaced
      | None ->
        if Hashtbl.mem st.nonzero vn then begin
          b.Func.term <- Instr.Jmp ifso;
          incr replaced
        end)
    | Instr.Br _ | Instr.Jmp _ | Instr.Ret _ -> ()

  (* Superlocal scope: a block with a unique, already-processed
     predecessor starts from a copy of that predecessor's exit state —
     every path into the block runs through the predecessor, so its
     value table is valid here (extended-basic-block value numbering).
     Join points start fresh. *)
  let run (f : Func.t) =
    let replaced = ref 0 in
    let preds = Tables.predecessors f in
    let blocks = Tables.block_table f in
    let exit_states = Hashtbl.create 16 in
    let seen = Hashtbl.create 16 in
    List.iter
      (fun label ->
        match Hashtbl.find_opt blocks label with
        | None -> ()
        | Some b ->
          let st =
            match Hashtbl.find_opt preds label with
            | Some [ p ]
              when p <> label && Hashtbl.mem seen p -> (
              match Hashtbl.find_opt exit_states p with
              | Some parent ->
                let st = copy_state parent in
                (* Record what the edge from the parent proves about the
                   branch condition: 0 on the fall-through (ifnot) arm,
                   non-zero on the taken (ifso) arm. *)
                (match Hashtbl.find_opt blocks p with
                | Some pb -> (
                  match pb.Func.term with
                  | Instr.Br { cond = Instr.Reg c; ifso; ifnot }
                    when ifso <> ifnot -> (
                    match Hashtbl.find_opt st.reg_vn c with
                    | Some vn ->
                      if label = ifnot then begin
                        let zero_vn = vn_of_key st (Const_k 0L) in
                        Hashtbl.replace st.reg_vn c zero_vn;
                        if not (Hashtbl.mem st.rep zero_vn) then
                          Hashtbl.replace st.rep zero_vn c
                      end
                      else if label = ifso then
                        Hashtbl.replace st.nonzero vn ()
                    | None -> ())
                  | Instr.Br _ | Instr.Jmp _ | Instr.Ret _ -> ())
                | None -> ());
                st
              | None -> fresh_state ())
            | _ -> fresh_state ()
          in
          process_block st b replaced;
          Hashtbl.replace exit_states label st;
          Hashtbl.replace seen label ())
      (Ref_analyses.Dominators.compute_rpo f);
    (* Unreachable blocks get plain local numbering so the pass is a
       total function of the CFG (they are dead code either way). *)
    List.iter
      (fun (b : Func.block) ->
        if not (Hashtbl.mem seen b.Func.label) then
          process_block (fresh_state ()) b replaced)
      f.Func.blocks;
    !replaced
end

module Copyprop = struct
  let run (f : Func.t) =
    let rewrites = ref 0 in
    List.iter
      (fun (b : Func.block) ->
        (* copy_of.(d) = Some s when d currently equals register s. *)
        let copy_of = Hashtbl.create 8 in
        let subst op =
          match op with
          | Instr.Reg r -> (
            match Hashtbl.find_opt copy_of r with
            | Some s ->
              incr rewrites;
              Instr.Reg s
            | None -> op)
          | Instr.Imm _ -> op
        in
        let kill d =
          Hashtbl.remove copy_of d;
          (* Any copy pointing at d is now stale. *)
          let stale =
            Hashtbl.fold (fun k s acc -> if s = d then k :: acc else acc) copy_of []
          in
          List.iter (Hashtbl.remove copy_of) stale
        in
        b.Func.instrs <-
          List.map
            (fun i ->
              let i = Instr.map_operands subst i in
              (match Instr.def i with Some d -> kill d | None -> ());
              (match i with
              | Instr.Move (d, Instr.Reg s) when d <> s ->
                Hashtbl.replace copy_of d s
              | _ -> ());
              i)
            b.Func.instrs;
        b.Func.term <- Instr.map_term_operands subst b.Func.term)
      f.Func.blocks;
    !rewrites
end

module Constprop = struct
  type value = Top | Const of int64 | Bottom

  let meet a b =
    match (a, b) with
    | Top, x | x, Top -> x
    | Const x, Const y when Int64.equal x y -> Const x
    | Const _, Const _ | Bottom, _ | _, Bottom -> Bottom

  let transfer_instr state i =
    let operand_value = function
      | Instr.Imm c -> Const c
      | Instr.Reg r -> state.(r)
    in
    match i with
    | Instr.Move (d, a) -> state.(d) <- operand_value a
    | Instr.Unop (op, d, a) ->
      state.(d) <-
        (match operand_value a with
        | Const c -> Const (Instr.eval_unop op c)
        | Top -> Top
        | Bottom -> Bottom)
    | Instr.Binop (op, d, a, b) ->
      state.(d) <-
        (match (operand_value a, operand_value b) with
        | Const x, Const y -> Const (Instr.eval_binop op x y)
        | Top, _ | _, Top -> Top
        | Bottom, _ | _, Bottom -> Bottom)
    | Instr.Load (d, _) -> state.(d) <- Bottom
    | Instr.Call { dst = Some d; _ } -> state.(d) <- Bottom
    | Instr.Call { dst = None; _ } | Instr.Store _ | Instr.Probe _ -> ()

  (* Successors that can actually execute given the converged state: a
     branch whose condition is a known constant feeds only its taken
     arm — the sparse-conditional refinement, which keeps one arm's
     constants from being polluted by the dead arm at a join. *)
  let feasible_successors state (b : Func.block) =
    match b.Func.term with
    | Instr.Br { cond; ifso; ifnot } -> (
      let v =
        match cond with
        | Instr.Imm c -> Const c
        | Instr.Reg r -> state.(r)
      in
      match v with
      | Const c -> if Int64.equal c 0L then [ ifnot ] else [ ifso ]
      | Top | Bottom -> [ ifso; ifnot ])
    | Instr.Jmp _ | Instr.Ret _ -> Instr.targets b.Func.term

  let run (f : Func.t) =
    let nregs = max f.Func.next_reg 1 in
    let rpo = Ref_analyses.Dominators.compute_rpo f in
    let blocks = Tables.block_table f in
    let in_states : (Instr.label, value array) Hashtbl.t = Hashtbl.create 16 in
    let entry_state = Array.make nregs Top in
    (* Parameters hold unknown caller values. *)
    for r = 0 to f.Func.arity - 1 do
      entry_state.(r) <- Bottom
    done;
    Hashtbl.replace in_states f.Func.entry entry_state;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun label ->
          match Hashtbl.find_opt in_states label with
          | None -> ()  (* not yet reached *)
          | Some in_state -> (
            match Hashtbl.find_opt blocks label with
            | None -> ()
            | Some b ->
              let state = Array.copy in_state in
              List.iter (transfer_instr state) b.Func.instrs;
              List.iter
                (fun succ ->
                  match Hashtbl.find_opt in_states succ with
                  | None ->
                    Hashtbl.replace in_states succ (Array.copy state);
                    changed := true
                  | Some succ_state ->
                    for r = 0 to nregs - 1 do
                      let m = meet succ_state.(r) state.(r) in
                      if m <> succ_state.(r) then begin
                        succ_state.(r) <- m;
                        changed := true
                      end
                    done)
                (feasible_successors state b)))
        rpo
    done;
    (* Rewrite using the converged per-block entry states. *)
    let rewrites = ref 0 in
    List.iter
      (fun (b : Func.block) ->
        match Hashtbl.find_opt in_states b.Func.label with
        | None -> ()  (* unreachable: left for Cfg.remove_unreachable *)
        | Some in_state ->
          let state = Array.copy in_state in
          let subst op =
            match op with
            | Instr.Imm _ -> op
            | Instr.Reg r -> (
              match state.(r) with
              | Const c ->
                incr rewrites;
                Instr.Imm c
              | Top | Bottom -> op)
          in
          b.Func.instrs <-
            List.map
              (fun i ->
                let i = Instr.map_operands subst i in
                (* Fold pure all-immediate instructions into moves. *)
                let i =
                  match i with
                  | Instr.Unop (op, d, Instr.Imm c) ->
                    incr rewrites;
                    Instr.Move (d, Instr.Imm (Instr.eval_unop op c))
                  | Instr.Binop (op, d, Instr.Imm x, Instr.Imm y) ->
                    incr rewrites;
                    Instr.Move (d, Instr.Imm (Instr.eval_binop op x y))
                  | other -> other
                in
                transfer_instr state i;
                i)
              b.Func.instrs;
          b.Func.term <- Instr.map_term_operands subst b.Func.term)
      f.Func.blocks;
    !rewrites
end

module Cfg = struct
  let remove_unreachable (f : Func.t) =
    let reachable = Tables.reachable f in
    let before = List.length f.Func.blocks in
    f.Func.blocks <-
      List.filter (fun (b : Func.block) -> Hashtbl.mem reachable b.Func.label) f.Func.blocks;
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
    let by_label = Tables.block_table f in
    let rec final_target seen label =
      if List.mem label seen then label
      else
        match Hashtbl.find_opt by_label label with
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
      let preds = Tables.predecessors f in
      let by_label = Tables.block_table f in
      List.iter
        (fun (b : Func.block) ->
          if Hashtbl.mem by_label b.Func.label then
            match b.Func.term with
            | Instr.Jmp succ_label
              when succ_label <> b.Func.label
                   && succ_label <> f.Func.entry
                   && Hashtbl.find_opt preds succ_label = Some [ b.Func.label ] -> (
              match Hashtbl.find_opt by_label succ_label with
              | Some succ ->
                b.Func.instrs <- b.Func.instrs @ succ.Func.instrs;
                b.Func.term <- succ.Func.term;
                if succ.Func.freq > b.Func.freq then b.Func.freq <- succ.Func.freq;
                Hashtbl.remove by_label succ_label;
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
end

module Sched = struct
  let is_barrier = function
    | Mach.Call_sym _ | Mach.Call_abs _ | Mach.Sys _ | Mach.Cnt _ | Mach.Adjsp _
    | Mach.B _ | Mach.Bz _ | Mach.Bnz _ | Mach.Ret | Mach.Halt -> true
    | Mach.Li _ | Mach.Mv _ | Mach.Op _ | Mach.Opi _ | Mach.Un _ | Mach.Ld _
    | Mach.St _ | Mach.Lga _ -> false

  let is_load = function Mach.Ld _ -> true | _ -> false

  let is_store = function Mach.St _ -> true | _ -> false

  (* Schedule one barrier-free segment; returns instructions in the new
     order plus how many changed relative position. *)
  let schedule_segment instrs =
    let n = Array.length instrs in
    if n <= 2 then (Array.to_list instrs, 0)
    else begin
      (* Dependence edges i -> j (i before j); each pair is visited
         once, so no edge is added twice. *)
      let succs = Array.make n [] in
      let preds_count = Array.make n 0 in
      let edge i j =
        succs.(i) <- j :: succs.(i);
        preds_count.(j) <- preds_count.(j) + 1
      in
      let uses = Array.map Mach.uses instrs and defs = Array.map Mach.defs instrs in
      for j = 0 to n - 1 do
        let uses_j = uses.(j) and defs_j = defs.(j) in
        for i = 0 to j - 1 do
          let defs_i = defs.(i) and uses_i = uses.(i) in
          let raw = List.exists (fun d -> List.mem d uses_j) defs_i in
          let war = List.exists (fun d -> List.mem d uses_i) defs_j in
          let waw = List.exists (fun d -> List.mem d defs_j) defs_i in
          let mem_order =
            (is_store instrs.(i) && (is_store instrs.(j) || is_load instrs.(j)))
            || (is_load instrs.(i) && is_store instrs.(j))
          in
          if raw || war || waw || mem_order then edge i j
        done
      done;
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
    List.iter
      (fun (b : Isel.vblock) ->
        (* Split at barriers; schedule each pure segment. *)
        let out = ref [] in
        let segment = ref [] in
        let flush () =
          let instrs = Array.of_list (List.rev !segment) in
          let ordered, m = schedule_segment instrs in
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
