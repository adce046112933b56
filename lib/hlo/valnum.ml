module Instr = Cmo_il.Instr
module Func = Cmo_il.Func

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
  let preds = Func.predecessors f in
  let blocks = Func.block_table f in
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
    (Dominators.rpo f);
  (* Unreachable blocks get plain local numbering so the pass is a
     total function of the CFG (they are dead code either way). *)
  List.iter
    (fun (b : Func.block) ->
      if not (Hashtbl.mem seen b.Func.label) then
        process_block (fresh_state ()) b replaced)
    f.Func.blocks;
  !replaced
