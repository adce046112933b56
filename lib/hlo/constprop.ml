module Instr = Cmo_il.Instr
module Func = Cmo_il.Func

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
  let rpo = Dominators.rpo f in
  let blocks = Func.block_table f in
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
