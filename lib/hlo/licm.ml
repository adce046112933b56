module Instr = Cmo_il.Instr
module Func = Cmo_il.Func

let def_counts (f : Func.t) =
  let counts = Hashtbl.create 32 in
  List.iter
    (fun (b : Func.block) ->
      List.iter
        (fun i ->
          Option.iter
            (fun d ->
              Hashtbl.replace counts d
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts d)))
            (Instr.def i))
        b.Func.instrs)
    f.Func.blocks;
  counts

(* Registers defined anywhere inside the loop body. *)
let defs_in_loop (f : Func.t) in_loop =
  let defs = Hashtbl.create 32 in
  List.iter
    (fun (b : Func.block) ->
      if Hashtbl.mem in_loop b.Func.label then
        List.iter
          (fun i -> Option.iter (fun d -> Hashtbl.replace defs d ()) (Instr.def i))
          b.Func.instrs)
    f.Func.blocks;
  defs

let process_loop (f : Func.t) (loop : Loopinfo.loop) =
  let in_loop = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace in_loop l ()) loop.Loopinfo.body;
  let loop_blocks =
    List.filter
      (fun (b : Func.block) -> Hashtbl.mem in_loop b.Func.label)
      f.Func.blocks
  in
  let has_clobber =
    List.exists
      (fun (b : Func.block) ->
        List.exists
          (fun i ->
            match i with
            | Instr.Store _ | Instr.Call _ -> true
            | Instr.Move _ | Instr.Unop _ | Instr.Binop _ | Instr.Load _
            | Instr.Probe _ -> false)
          b.Func.instrs)
      loop_blocks
  in
  (* Liveness only answers the exit test, which [hoistable] asks last,
     so most loops never compute it.  A hoist needs that test to pass,
     so the first force precedes the first mutation and sees the
     function this call started with. *)
  let live = lazy (Liveness.compute f) in
  (* Exit targets: out-of-loop successors of loop blocks. *)
  let exit_targets =
    List.concat_map
      (fun (b : Func.block) ->
        List.filter (fun s -> not (Hashtbl.mem in_loop s)) (Instr.targets b.Func.term))
      loop_blocks
  in
  let live_at_exit r =
    List.exists (fun t -> Liveness.live_in_mem (Lazy.force live) t r) exit_targets
  in
  let counts = def_counts f in
  let loop_defs = defs_in_loop f in_loop in
  let hoisted_regs = Hashtbl.create 8 in
  let hoisted_rev = ref [] in
  let operand_invariant = function
    | Instr.Imm _ -> true
    | Instr.Reg r ->
      (not (Hashtbl.mem loop_defs r)) || Hashtbl.mem hoisted_regs r
  in
  let hoistable i =
    match Instr.def i with
    | None -> false
    | Some d ->
      Hashtbl.find_opt counts d = Some 1
      && (not (Hashtbl.mem hoisted_regs d))
      && List.for_all operand_invariant
           (match i with
           | Instr.Move (_, a) | Instr.Unop (_, _, a) -> [ a ]
           | Instr.Binop (_, _, a, b) -> [ a; b ]
           | Instr.Load (_, { Instr.index; _ }) -> [ index ]
           | Instr.Store _ | Instr.Call _ | Instr.Probe _ -> [])
      && (match i with
         | Instr.Move _ | Instr.Unop _ | Instr.Binop _ -> true
         | Instr.Load _ -> not has_clobber
         | Instr.Store _ | Instr.Call _ | Instr.Probe _ -> false)
      && not (live_at_exit d)
  in
  (* Fixpoint discovery: hoisting one definition can make its users
     hoistable. *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (b : Func.block) ->
        b.Func.instrs <-
          List.filter
            (fun i ->
              if hoistable i then begin
                hoisted_rev := i :: !hoisted_rev;
                Hashtbl.replace hoisted_regs (Option.get (Instr.def i)) ();
                changed := true;
                false
              end
              else true)
            b.Func.instrs)
      loop_blocks
  done;
  let hoisted = List.rev !hoisted_rev in
  if hoisted <> [] then begin
    (* Build or reuse a preheader: a fresh block holding the hoisted
       code, jumped to by all out-of-loop predecessors of the header. *)
    let header = loop.Loopinfo.header in
    let pre = Func.add_block f hoisted (Instr.Jmp header) in
    List.iter
      (fun (b : Func.block) ->
        if (not (Hashtbl.mem in_loop b.Func.label)) && b.Func.label <> pre.Func.label
        then
          b.Func.term <-
            Instr.retarget
              (fun l -> if l = header then pre.Func.label else l)
              b.Func.term)
      f.Func.blocks;
    if f.Func.entry = header then f.Func.entry <- pre.Func.label;
    (* The preheader runs as often as the loop is entered; the
       header frequency is an upper bound used only for layout. *)
    (match Func.find_block_opt f header with
    | Some h -> pre.Func.freq <- h.Func.freq
    | None -> ())
  end;
  List.length hoisted

let run (f : Func.t) =
  (* One loop at a time, deepest first, recomputing loop structure
     after each hoist: a freshly-made inner preheader is part of the
     enclosing loop, and working from a stale body set could classify
     its definitions as loop-invariant for the outer loop. *)
  let total = ref 0 in
  let processed = Hashtbl.create 8 in
  let continue_ = ref true in
  while !continue_ do
    let candidates =
      Loopinfo.loops (Loopinfo.compute f)
      |> List.filter (fun l -> not (Hashtbl.mem processed l.Loopinfo.header))
      |> List.sort (fun a b ->
             match compare b.Loopinfo.depth a.Loopinfo.depth with
             | 0 -> compare a.Loopinfo.header b.Loopinfo.header
             | c -> c)
    in
    match candidates with
    | [] -> continue_ := false
    | loop :: _ ->
      Hashtbl.replace processed loop.Loopinfo.header ();
      total := !total + process_loop f loop
  done;
  !total
