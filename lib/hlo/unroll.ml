module Instr = Cmo_il.Instr
module Func = Cmo_il.Func

type candidate = {
  header : Func.block;
  body : Func.block;
  exit_label : Instr.label;
  ivar : Instr.reg;
  trip : int;
}

(* The last definition of [r] in a block, as a constant if it is a
   plain [Move r, Imm c]. *)
let last_const_def_of (b : Func.block) r =
  List.fold_left
    (fun acc i ->
      match Instr.def i with
      | Some d when d = r -> (
        match i with Instr.Move (_, Instr.Imm c) -> Some c | _ -> None)
      | Some _ | None -> acc)
    None b.Func.instrs

let defs_of_reg_in (b : Func.block) r =
  List.length
    (List.filter (fun i -> Instr.def i = Some r) b.Func.instrs)

let recognize (f : Func.t) (loop : Loopinfo.loop) preds =
  match loop.Loopinfo.body with
  | [ l1; l2 ] -> (
    let header_label = loop.Loopinfo.header in
    let body_label = if l1 = header_label then l2 else l1 in
    match (Func.find_block_opt f header_label, Func.find_block_opt f body_label) with
    | Some header, Some body -> (
      (* Header: ends [br c, body, exit]; c defined by the header's
         last instruction as [i < n] or [i <= n]. *)
      match (header.Func.term, List.rev header.Func.instrs) with
      | ( Instr.Br { cond = Instr.Reg c; ifso; ifnot },
          Instr.Binop (((Instr.Lt | Instr.Le) as op), c', Instr.Reg ivar, Instr.Imm bound)
          :: _ )
        when c = c' && ifso = body_label && ifnot <> header_label
             && ifnot <> body_label -> (
        let exit_label = ifnot in
        (* Body: single straight-line block jumping back, across which
           the induction variable advances by exactly +1.  The check
           is an abstract evaluation tracking each register's value
           relative to [ivar] at body entry, which tolerates the
           temp-and-move shape the frontend lowers [i = i + 1] to. *)
        let increments =
          match body.Func.term with
          | Instr.Jmp back when back = header_label ->
            let rel : (Instr.reg, int) Hashtbl.t = Hashtbl.create 8 in
            Hashtbl.replace rel ivar 0;
            List.iter
              (fun i ->
                let value_of = function
                  | Instr.Reg r -> Hashtbl.find_opt rel r
                  | Instr.Imm _ -> None
                in
                let new_value =
                  match i with
                  | Instr.Move (_, a) -> value_of a
                  | Instr.Binop (Instr.Add, _, a, Instr.Imm k) ->
                    Option.map (fun n -> n + Int64.to_int k) (value_of a)
                  | Instr.Binop (Instr.Add, _, Instr.Imm k, a) ->
                    Option.map (fun n -> n + Int64.to_int k) (value_of a)
                  | Instr.Binop (Instr.Sub, _, a, Instr.Imm k) ->
                    Option.map (fun n -> n - Int64.to_int k) (value_of a)
                  | _ -> None
                in
                match Instr.def i with
                | Some d -> (
                  match new_value with
                  | Some v -> Hashtbl.replace rel d v
                  | None -> Hashtbl.remove rel d)
                | None -> ())
              body.Func.instrs;
            Hashtbl.find_opt rel ivar = Some 1
          | Instr.Jmp _ | Instr.Br _ | Instr.Ret _ -> false
        in
        if (not increments) || defs_of_reg_in header ivar > 0 then None
        else begin
          (* Initial value: the unique out-of-loop predecessor of the
             header must end with a constant definition of i. *)
          let outside_preds =
            List.filter
              (fun p -> p <> body_label)
              (Lazy.force preds).(header_label)
          in
          match outside_preds with
          | [ p ] -> (
            match Func.find_block_opt f p with
            | Some pre -> (
              match last_const_def_of pre ivar with
              | Some init ->
                let bound = Int64.to_int bound and init = Int64.to_int init in
                let trip =
                  match op with
                  | Instr.Lt -> max 0 (bound - init)
                  | Instr.Le -> max 0 (bound - init + 1)
                  | _ -> 0
                in
                Some { header; body; exit_label; ivar; trip }
              | None -> None)
            | None -> None)
          | _ -> None
        end)
      | _ -> None)
    | _ -> None)
  | _ -> None

let fresh_sites f instrs =
  List.map
    (fun i ->
      match i with
      | Instr.Call c -> Instr.Call { c with Instr.site = Func.new_site f }
      | other -> other)
    instrs

let apply f cand =
  (* Build [trip] copies of (header; body) followed by one final
     header copy.  The original header and body instructions are used
     verbatim for the first copy (their call-site ids stay); all later
     copies get fresh call-site ids to keep ids unique. *)
  let segments = ref [] in
  for k = 1 to cand.trip do
    let h =
      if k = 1 then cand.header.Func.instrs
      else fresh_sites f cand.header.Func.instrs
    in
    let b =
      if k = 1 then cand.body.Func.instrs
      else fresh_sites f cand.body.Func.instrs
    in
    segments := b :: h :: !segments
  done;
  let final_header =
    if cand.trip = 0 then cand.header.Func.instrs
    else fresh_sites f cand.header.Func.instrs
  in
  let unrolled = List.concat (List.rev (final_header :: !segments)) in
  cand.header.Func.instrs <- unrolled;
  cand.header.Func.term <- Instr.Jmp cand.exit_label;
  (* The body block is now unreachable; Cfg.remove_unreachable will
     delete it, but detach its back edge now so loop info recomputed
     in the same pass does not see a stale loop. *)
  cand.body.Func.instrs <- [];
  cand.body.Func.term <- Instr.Jmp cand.exit_label

let run ?(max_trip = 16) ?(budget = 96) (f : Func.t) =
  let unrolled = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let loops = Loopinfo.loops (Loopinfo.compute f) in
    (* Only a loop that passes the shape checks asks for these. *)
    let preds = lazy (Func.predecessors f (Func.index f)) in
    let candidate =
      List.find_map
        (fun loop ->
          match recognize f loop preds with
          | Some cand
            when cand.trip <= max_trip
                 && cand.trip
                    * (List.length cand.header.Func.instrs
                      + List.length cand.body.Func.instrs)
                    <= budget ->
            Some cand
          | Some _ | None -> None)
        loops
    in
    match candidate with
    | Some cand ->
      apply f cand;
      ignore (Cfg.remove_unreachable f);
      incr unrolled
    | None -> continue_ := false
  done;
  !unrolled
