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
