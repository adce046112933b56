module Instr = Cmo_il.Instr
module Func = Cmo_il.Func

type value = Top | Const of int64 | Bottom

let meet a b =
  match (a, b) with
  | Top, x | x, Top -> x
  | Const x, Const y when Int64.equal x y -> a
  | Const _, Const _ | Bottom, _ | _, Bottom -> Bottom

let equal_value a b =
  match (a, b) with
  | Top, Top | Bottom, Bottom -> true
  | Const x, Const y -> Int64.equal x y
  | (Top | Const _ | Bottom), _ -> false

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
  let ix = Func.index f in
  (* Reachable labels by RPO position; [pos] maps a label back.  An
     empty in-state marks a position not reached yet. *)
  let rpo = Array.of_list (Dominators.rpo ~index:ix f) in
  let pos = Array.make ix.Func.bound (-1) in
  Array.iteri (fun i l -> pos.(l) <- i) rpo;
  let in_states = Array.make (Array.length rpo) [||] in
  let entry_state = Array.make nregs Top in
  (* Parameters hold unknown caller values. *)
  for r = 0 to f.Func.arity - 1 do
    entry_state.(r) <- Bottom
  done;
  if Array.length rpo > 0 then in_states.(pos.(f.Func.entry)) <- entry_state;
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i label ->
        let in_state = in_states.(i) in
        if Array.length in_state > 0 then
          match ix.Func.block_at.(label) with
          | None -> ()
          | Some b ->
            let state = Array.copy in_state in
            List.iter (transfer_instr state) b.Func.instrs;
            List.iter
              (fun succ ->
                let s = pos.(succ) in
                let succ_state = in_states.(s) in
                if Array.length succ_state = 0 then begin
                  in_states.(s) <- Array.copy state;
                  changed := true
                end
                else
                  for r = 0 to nregs - 1 do
                    (* A cell met with itself is unchanged. *)
                    let old = succ_state.(r) and v = state.(r) in
                    if old != v then begin
                      let m = meet old v in
                      if not (equal_value m old) then begin
                        succ_state.(r) <- m;
                        changed := true
                      end
                    end
                  done)
              (feasible_successors state b))
      rpo
  done;
  (* Rewrite using the converged per-block entry states. *)
  let rewrites = ref 0 in
  List.iter
    (fun (b : Func.block) ->
      let i = pos.(b.Func.label) in
      if i < 0 || Array.length in_states.(i) = 0 then
        ()  (* unreachable: left for Cfg.remove_unreachable *)
      else
        let in_state = in_states.(i) in
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
