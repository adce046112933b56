module Instr = Cmo_il.Instr
module Func = Cmo_il.Func

(* Value-number keys.  [Origin r] numbers the value a register holds
   on block entry; [Load_k] keys carry a memory generation bumped by
   every store and call. *)
type key =
  | Const_k of int64
  | Origin of Instr.reg
  | Unop_k of Instr.unop * int
  | Binop_k of Instr.binop * int * int
  | Load_k of int * int * int  (* interned base, index vn, memory generation *)
  | Opaque  (* a call result: numbered, never looked up *)

let commutative = function
  | Instr.Add | Instr.Mul | Instr.And | Instr.Or | Instr.Xor | Instr.Eq
  | Instr.Ne -> true
  | Instr.Sub | Instr.Div | Instr.Rem | Instr.Shl | Instr.Shr | Instr.Lt
  | Instr.Le | Instr.Gt | Instr.Ge -> false

let unop_code = function Instr.Neg -> 0 | Instr.Not -> 1

let binop_code = function
  | Instr.Add -> 0 | Instr.Sub -> 1 | Instr.Mul -> 2 | Instr.Div -> 3
  | Instr.Rem -> 4 | Instr.And -> 5 | Instr.Or -> 6 | Instr.Xor -> 7
  | Instr.Shl -> 8 | Instr.Shr -> 9 | Instr.Eq -> 10 | Instr.Ne -> 11
  | Instr.Lt -> 12 | Instr.Le -> 13 | Instr.Gt -> 14 | Instr.Ge -> 15

(* Key -> value number, hashed and compared without the polymorphic
   primitives. *)
module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal a b =
    match (a, b) with
    | Const_k x, Const_k y -> Int64.equal x y
    | Origin x, Origin y -> x = y
    | Unop_k (o, x), Unop_k (p, y) -> o == p && x = y
    | Binop_k (o, x, y), Binop_k (p, x', y') -> o == p && x = x' && y = y'
    | Load_k (b, x, g), Load_k (b', x', g') -> b = b' && x = x' && g = g'
    | (Const_k _ | Origin _ | Unop_k _ | Binop_k _ | Load_k _ | Opaque), _ -> false

  let mix h x = (h * 0x100000001b3) + x

  let hash k =
    let h =
      match k with
      | Const_k c -> mix 1 (Int64.to_int c)
      | Origin r -> mix 2 r
      | Unop_k (op, a) -> mix (mix 3 (unop_code op)) a
      | Binop_k (op, a, b) -> mix (mix (mix 4 (binop_code op)) a) b
      | Load_k (base, i, g) -> mix (mix (mix 5 base) i) g
      | Opaque -> 6
    in
    let h = h * 0x1e3779b97f4a7c15 in
    h lxor (h lsr 29)
end)

(* One state for the whole routine, walked depth-first over the tree
   of extended basic blocks: a block starts from its parent's exit
   state and every write made since is undone, from a typed log,
   before the walk moves to a sibling.  Register- and
   value-number-indexed tables are arrays; a value number's slots are
   reset when it is minted, so one left behind by an undone sibling
   never leaks its constant, holder or non-zero fact. *)
type state = {
  reg_vn : int array;  (* reg -> vn, -1 when not numbered yet *)
  mutable key_of : key array;  (* vn -> key; [Const_k] answers "constant?" *)
  mutable rep : int array;  (* vn -> register currently holding it, -1 *)
  mutable nonzero : bool array;
      (* Values proved non-zero on this path (we sit under the taken
         arm of a branch on them): the fuel of redundant branch
         elimination. *)
  key_vn : int Key_tbl.t;
  mutable next_vn : int;
  mutable memgen : int;  (* bumped by calls: clobbers every global *)
  bases : (string, int) Hashtbl.t;  (* global name -> interned id *)
  mutable base_gen : int array;
      (* Memory disambiguation: distinct globals cannot alias (MiniC
         has no address-of), so a store to base [g] only invalidates
         loads of [g] — each base carries its own generation on top of
         the global one. *)
  mutable log : int array;  (* undo entries: (kind, slot, old value) *)
  mutable log_len : int;
}

(* Undo-log entry kinds. *)
let u_reg = 0
let u_rep = 1
let u_nonzero = 2
let u_base = 3
let u_key = 4  (* a key -> vn binding was added; slot is the vn *)

let push st kind slot old =
  let n = st.log_len in
  if n + 3 > Array.length st.log then begin
    let log = Array.make (2 * Array.length st.log) 0 in
    Array.blit st.log 0 log 0 n;
    st.log <- log
  end;
  st.log.(n) <- kind;
  st.log.(n + 1) <- slot;
  st.log.(n + 2) <- old;
  st.log_len <- n + 3

let undo st mark =
  while st.log_len > mark do
    let n = st.log_len - 3 in
    let kind = st.log.(n) and slot = st.log.(n + 1) and old = st.log.(n + 2) in
    if kind = u_reg then st.reg_vn.(slot) <- old
    else if kind = u_rep then st.rep.(slot) <- old
    else if kind = u_nonzero then st.nonzero.(slot) <- old = 1
    else if kind = u_base then st.base_gen.(slot) <- old
    else Key_tbl.remove st.key_vn st.key_of.(slot);
    st.log_len <- n
  done

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let mint st key =
  let vn = st.next_vn in
  if vn >= Array.length st.rep then begin
    st.key_of <- grow st.key_of Opaque;
    st.rep <- grow st.rep (-1);
    st.nonzero <- grow st.nonzero false
  end;
  st.key_of.(vn) <- key;
  st.rep.(vn) <- -1;
  st.nonzero.(vn) <- false;
  st.next_vn <- vn + 1;
  vn

let set_reg st r vn =
  push st u_reg r st.reg_vn.(r);
  st.reg_vn.(r) <- vn

let set_rep st vn r =
  push st u_rep vn st.rep.(vn);
  st.rep.(vn) <- r

let set_nonzero st vn =
  push st u_nonzero vn (if st.nonzero.(vn) then 1 else 0);
  st.nonzero.(vn) <- true

let vn_of_key st key =
  match Key_tbl.find st.key_vn key with
  | vn -> vn
  | exception Not_found ->
    let vn = mint st key in
    Key_tbl.add st.key_vn key vn;
    push st u_key vn 0;
    vn

let vn_of_reg st r =
  let vn = st.reg_vn.(r) in
  if vn >= 0 then vn
  else begin
    let vn = vn_of_key st (Origin r) in
    set_reg st r vn;
    if st.rep.(vn) < 0 then set_rep st vn r;
    vn
  end

let vn_of_operand st = function
  | Instr.Imm c -> vn_of_key st (Const_k c)
  | Instr.Reg r -> vn_of_reg st r

(* Redefining [d]: if it was the representative of its old value,
   that value loses its holder. *)
let set_def st d vn =
  let old_vn = st.reg_vn.(d) in
  if old_vn >= 0 && st.rep.(old_vn) = d then set_rep st old_vn (-1);
  set_reg st d vn;
  if st.rep.(vn) < 0 then set_rep st vn d

let base_id st base =
  match Hashtbl.find st.bases base with
  | id -> id
  | exception Not_found ->
    let id = Hashtbl.length st.bases in
    Hashtbl.add st.bases base id;
    if id >= Array.length st.base_gen then st.base_gen <- grow st.base_gen 0;
    id

let create (f : Func.t) =
  let vns = max 16 (2 * f.Func.next_reg) in
  {
    reg_vn = Array.make f.Func.next_reg (-1);
    key_of = Array.make vns Opaque;
    rep = Array.make vns (-1);
    nonzero = Array.make vns false;
    key_vn = Key_tbl.create 64;
    next_vn = 0;
    memgen = 0;
    bases = Hashtbl.create 8;
    base_gen = Array.make 8 0;
    log = Array.make 256 0;
    log_len = 0;
  }

let process_block st (b : Func.block) replaced =
  b.Func.instrs <-
    List.map
      (fun i ->
        let try_cse d key =
          let vn = vn_of_key st key in
          let r = st.rep.(vn) in
          if r >= 0 && r <> d then begin
            incr replaced;
            set_def st d vn;
            Instr.Move (d, Instr.Reg r)
          end
          else begin
            set_def st d vn;
            i
          end
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
          let id = base_id st base in
          try_cse d (Load_k (id, vn_of_operand st index, st.memgen + st.base_gen.(id)))
        | Instr.Store ({ Instr.base; _ }, _) ->
          let id = base_id st base in
          push st u_base id st.base_gen.(id);
          st.base_gen.(id) <- st.base_gen.(id) + 1;
          i
        | Instr.Call c ->
          st.memgen <- st.memgen + 1;
          (match c.Instr.dst with
          | Some d -> set_def st d (mint st Opaque)
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
    match st.key_of.(vn) with
    | Const_k 0L ->
      b.Func.term <- Instr.Jmp ifnot;
      incr replaced
    | Const_k _ ->
      b.Func.term <- Instr.Jmp ifso;
      incr replaced
    | Origin _ | Unop_k _ | Binop_k _ | Load_k _ | Opaque ->
      if st.nonzero.(vn) then begin
        b.Func.term <- Instr.Jmp ifso;
        incr replaced
      end)
  | Instr.Br _ | Instr.Jmp _ | Instr.Ret _ -> ()

(* Record what the edge from [pb] into [label] proves about its
   branch condition: 0 on the fall-through (ifnot) arm, non-zero on
   the taken (ifso) arm. *)
let enter_edge st (pb : Func.block) label =
  match pb.Func.term with
  | Instr.Br { cond = Instr.Reg c; ifso; ifnot } when ifso <> ifnot ->
    let vn = st.reg_vn.(c) in
    if vn >= 0 then
      if label = ifnot then begin
        let zero_vn = vn_of_key st (Const_k 0L) in
        set_reg st c zero_vn;
        if st.rep.(zero_vn) < 0 then set_rep st zero_vn c
      end
      else if label = ifso then set_nonzero st vn
  | Instr.Br _ | Instr.Jmp _ | Instr.Ret _ -> ()

(* Superlocal scope: a block with a unique predecessor that comes
   earlier in reverse postorder starts from that predecessor's exit
   state — every path into the block runs through the predecessor, so
   its value table is valid here (extended-basic-block value
   numbering).  Join points start fresh.  Those parent links form a
   forest; each tree is walked depth-first, children in reverse
   postorder, undoing a subtree's writes before the next sibling, so
   every block sees exactly the state a copy of its parent's would
   have given it. *)
let run (f : Func.t) =
  let replaced = ref 0 in
  let ix = Func.index f in
  let rpo = Dominators.rpo ~index:ix f in
  let pos = Array.make ix.Func.bound (-1) in
  List.iteri (fun i l -> pos.(l) <- i) rpo;
  let children = Array.make ix.Func.bound [] in
  let roots = ref [] in
  List.iter
    (fun label ->
      if Option.is_some ix.Func.block_at.(label) then begin
        let p = Func.sole_pred ix label in
        if p >= 0 && p <> label && pos.(p) >= 0 && pos.(p) < pos.(label) then
          children.(p) <- label :: children.(p)
        else roots := label :: !roots
      end)
    (List.rev rpo);
  let st = create f in
  let rec visit parent label =
    let b = Option.get ix.Func.block_at.(label) in
    let mark = st.log_len and next_vn = st.next_vn and memgen = st.memgen in
    Option.iter (fun pb -> enter_edge st pb label) parent;
    process_block st b replaced;
    List.iter (visit (Some b)) children.(label);
    undo st mark;
    st.next_vn <- next_vn;
    st.memgen <- memgen
  in
  List.iter (visit None) !roots;
  (* Unreachable blocks get plain local numbering so the pass is a
     total function of the CFG (they are dead code either way). *)
  List.iter
    (fun (b : Func.block) ->
      if pos.(b.Func.label) < 0 then begin
        process_block st b replaced;
        undo st 0;
        st.next_vn <- 0;
        st.memgen <- 0
      end)
    f.Func.blocks;
  !replaced
