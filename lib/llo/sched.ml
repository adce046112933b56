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
