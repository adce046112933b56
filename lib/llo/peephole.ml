module Instr = Cmo_il.Instr

(* The shift [s] with [2^s = v], for [v] a power of two above 1 (at
   most [2^62]); [-1] for any other [v]. *)
let log2_exact v =
  if Int64.compare v 1L <= 0 then -1
  else begin
    let rec go shift =
      if shift > 62 then -1
      else begin
        let p = Int64.shift_left 1L shift in
        if Int64.equal p v then shift
        else if Int64.compare p v > 0 then -1
        else go (shift + 1)
      end
    in
    go 1
  end

(* The rewrite of one instruction, or [i] itself when no rule
   applies. *)
let rewrite_instr count i =
  match i with
  | Mach.Opi (Instr.Mul, d, s, v) ->
    let shift = log2_exact v in
    if shift > 0 then begin
      incr count;
      Mach.Opi (Instr.Shl, d, s, Int64.of_int shift)
    end
    else if Int64.equal v 1L then begin
      incr count;
      Mach.Mv (d, s)
    end
    else if Int64.equal v 0L then begin
      incr count;
      Mach.Li (d, 0L)
    end
    else i
  | Mach.Opi ((Instr.Add | Instr.Sub | Instr.Or | Instr.Xor | Instr.Shl | Instr.Shr), d, s, 0L) ->
    incr count;
    Mach.Mv (d, s)
  | Mach.Opi (Instr.And, d, _, 0L) ->
    incr count;
    Mach.Li (d, 0L)
  | _ -> i

(* One pass over a body: rewrite each instruction, delete self-moves,
   and delete a [Li r, c] when the last instruction kept already was
   [Li r, c] (same register, same constant, no intervening def).
   [prev] is the last instruction kept ([Halt] at the start: only a
   [Li] matters).  An unchanged suffix is returned as it came, so a
   body with nothing to rewrite keeps its list. *)
let rec rewrite_body count prev body =
  match body with
  | [] -> body
  | Mach.Mv (d, s) :: rest when d = s ->
    incr count;
    rewrite_body count prev rest
  | i :: rest -> (
    let i' = rewrite_instr count i in
    match (i', prev) with
    | Mach.Li (d, c), Mach.Li (pd, pc) when pd = d && Int64.equal pc c ->
      incr count;
      rewrite_body count prev rest
    | _ ->
      let rest' = rewrite_body count i' rest in
      if i' == i && rest' == rest then body else i' :: rest')

let run (vc : Isel.vcode) =
  let count = ref 0 in
  List.iter
    (fun (b : Isel.vblock) -> b.Isel.body <- rewrite_body count Mach.Halt b.Isel.body)
    vc.Isel.vblocks;
  !count
