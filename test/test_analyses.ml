(* The dense per-routine analyses against their reference oracles
   ([Ref_analyses], the list- and Hashtbl-based implementations they
   replaced).  Over every routine of generated programs of the three
   benchmark personalities — after the frontend, after inlining, and
   after each pass of the scalar ladder — and over hand-built CFG edge
   cases, the new code must give exactly the oracle's reverse
   postorder, immediate dominators, dominance relation, live-in and
   live-out sets, loops, modeled footprints and register-allocation
   intervals. *)

module Instr = Cmo_il.Instr
module Func = Cmo_il.Func
module Ilmod = Cmo_il.Ilmod
module Callgraph = Cmo_il.Callgraph
module Dominators = Cmo_hlo.Dominators
module Liveness = Cmo_hlo.Liveness
module Loopinfo = Cmo_hlo.Loopinfo
module Inline = Cmo_hlo.Inline
module Phase = Cmo_hlo.Phase
module Isel = Cmo_llo.Isel
module Sched = Cmo_llo.Sched
module Regalloc = Cmo_llo.Regalloc
module Loader = Cmo_naim.Loader
module Memstats = Cmo_naim.Memstats
module Pipeline = Cmo_driver.Pipeline
module Genprog = Cmo_workload.Genprog
module Suite = Cmo_workload.Suite
module Ref = Ref_analyses

exception Mismatch of string

let mismatch fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt

(* Every label the analyses can be asked about: blocks, branch
   targets (dangling ones included), the entry, and one label no
   block or branch uses. *)
let labels_of (f : Func.t) =
  List.concat_map
    (fun (b : Func.block) -> b.Func.label :: Instr.targets b.Func.term)
    f.Func.blocks
  @ [ f.Func.entry; f.Func.next_label + 7 ]
  |> List.sort_uniq compare

let show_labels l = String.concat "," (List.map string_of_int l)

let check_dominators (f : Func.t) labels =
  let d = Dominators.compute f and r = Ref.Dominators.compute f in
  let rpo = Dominators.reverse_postorder d in
  if rpo <> Ref.Dominators.reverse_postorder r then
    mismatch "rpo [%s] <> oracle [%s]" (show_labels rpo)
      (show_labels (Ref.Dominators.reverse_postorder r));
  if Dominators.rpo f <> rpo then mismatch "Dominators.rpo <> reverse_postorder";
  if Dominators.modeled_bytes d <> Ref.Dominators.modeled_bytes r then
    mismatch "dominators modeled bytes";
  List.iter
    (fun a ->
      if Dominators.idom d a <> Ref.Dominators.idom r a then mismatch "idom L%d" a;
      List.iter
        (fun b ->
          if Dominators.dominates d a b <> Ref.Dominators.dominates r a b then
            mismatch "dominates L%d L%d" a b)
        labels)
    labels;
  d

let check_liveness (f : Func.t) labels =
  let l = Liveness.compute f and r = Ref.Liveness.compute f in
  List.iter
    (fun label ->
      let live_in = Liveness.live_in l label and live_out = Liveness.live_out l label in
      if live_in <> Ref.Liveness.live_in r label then mismatch "live_in L%d" label;
      if live_out <> Ref.Liveness.live_out r label then mismatch "live_out L%d" label;
      for reg = 0 to f.Func.next_reg do
        if Liveness.live_in_mem l label reg <> List.mem reg live_in then
          mismatch "live_in_mem L%d r%d" label reg;
        if Liveness.live_out_mem l label reg <> Ref.Liveness.live_out_mem r label reg
        then mismatch "live_out_mem L%d r%d" label reg
      done)
    labels;
  if
    Liveness.footprint ~blocks:(List.length f.Func.blocks) ~nregs:f.Func.next_reg
    <> Ref.Liveness.modeled_bytes r
  then mismatch "liveness footprint"

let same_loops (a : Loopinfo.loop list) (b : Ref.Loopinfo.loop list) =
  List.map (fun (x : Loopinfo.loop) -> (x.Loopinfo.header, x.Loopinfo.body, x.Loopinfo.depth)) a
  = List.map
      (fun (y : Ref.Loopinfo.loop) -> (y.Ref.Loopinfo.header, y.Ref.Loopinfo.body, y.Ref.Loopinfo.depth))
      b

let check_loops (f : Func.t) doms labels =
  let r = Ref.Loopinfo.compute f in
  List.iter
    (fun (name, l) ->
      if not (same_loops (Loopinfo.loops l) (Ref.Loopinfo.loops r)) then
        mismatch "loops (%s)" name;
      if Loopinfo.modeled_bytes l <> Ref.Loopinfo.modeled_bytes r then
        mismatch "loops modeled bytes (%s)" name;
      List.iter
        (fun label ->
          if Loopinfo.depth_of l label <> Ref.Loopinfo.depth_of r label then
            mismatch "depth_of L%d (%s)" label name;
          let header t = Option.map (fun (x : Loopinfo.loop) -> x.Loopinfo.header) t in
          let ref_header t =
            Option.map (fun (x : Ref.Loopinfo.loop) -> x.Ref.Loopinfo.header) t
          in
          if header (Loopinfo.loop_of l label) <> ref_header (Ref.Loopinfo.loop_of r label)
          then mismatch "loop_of L%d (%s)" label name)
        labels)
    [ ("own dominators", Loopinfo.compute f); ("shared dominators", Loopinfo.compute ~doms f) ]

(* Selection, then the intervals before and after scheduling (the
   allocator sees the scheduled code). *)
let check_intervals (f : Func.t) =
  let vc = Isel.select ~module_name:"m" f in
  let oracle vc =
    List.map
      (fun (itv : Ref.Regalloc.interval) ->
        (itv.Ref.Regalloc.vreg, itv.Ref.Regalloc.lo, itv.Ref.Regalloc.hi,
         itv.Ref.Regalloc.weight))
      (Ref.Regalloc.compute_intervals vc)
  in
  if Regalloc.intervals vc <> oracle vc then mismatch "regalloc intervals";
  ignore (Sched.run vc);
  if Regalloc.intervals vc <> oracle vc then mismatch "regalloc intervals (scheduled)"

let check_func ~stage (f : Func.t) =
  try
    let labels = labels_of f in
    let doms = check_dominators f labels in
    check_liveness f labels;
    check_loops f doms labels;
    check_intervals f
  with Mismatch what ->
    QCheck.Test.fail_reportf "%s, %s: %s@.%a" stage f.Func.name what Func.pp f

let funcs modules = List.concat_map (fun (m : Ilmod.t) -> m.Ilmod.funcs) modules

(* The routines of one program at every stage the optimizer hands
   them to an analysis or a transform: frontend output, after
   inlining, then after each pass of two rounds of the scalar
   ladder.  [k ~stage f] must leave [f] unchanged. *)
let iter_stages program k =
  let sources = List.map (fun (name, text) -> { Pipeline.name; text }) program in
  let modules = Pipeline.frontend sources in
  List.iter (k ~stage:"frontend") (funcs modules);
  let loader =
    Loader.create
      { Loader.default_config with Loader.machine_memory = 1 lsl 30 }
      (Memstats.create ())
  in
  List.iter (Loader.register_module loader) modules;
  ignore
    (Inline.run loader (Callgraph.build modules)
       { Inline.default_config with Inline.use_profile = false });
  let inlined = Loader.extract_modules loader in
  Loader.close loader;
  List.iter
    (fun f ->
      k ~stage:"inlined" f;
      let f = Func.copy f in
      for round = 1 to 2 do
        List.iter
          (fun (name, pass) ->
            ignore (pass f);
            k ~stage:(Printf.sprintf "round %d after %s" round name) f)
          Phase.passes
      done)
    (funcs inlined)

let check_program program =
  iter_stages program check_func;
  true

let personalities =
  [ ("li", Suite.find "li"); ("mcad1", Suite.find "mcad1"); ("storm", Suite.storm) ]

(* A small program of a personality: its shape, a fresh seed, two to
   four modules. *)
let small_program (personality, seed, modules) =
  let cfg = List.assoc personality personalities in
  let cfg = Genprog.scale cfg (float_of_int modules /. float_of_int cfg.Genprog.modules) in
  Genprog.generate { cfg with Genprog.seed; name = personality }

let program_arbitrary =
  QCheck.make
    ~print:(fun (p, seed, modules) -> Printf.sprintf "%s seed=%d modules=%d" p seed modules)
    QCheck.Gen.(
      triple (oneofl (List.map fst personalities)) (int_bound 1_000_000) (int_range 2 4))

(* Ten programs by default; [QCHECK_LONG=1] runs ten times as many. *)
let test_oracle_property =
  QCheck.Test.make ~name:"dense analyses equal the reference oracles" ~count:10
    ~long_factor:10 program_arbitrary
    (fun p -> check_program (small_program p))

(* ---------- hand-built edge cases ---------- *)

let block f ?(instrs = []) term = Func.add_block f instrs term

let r_move d c = Instr.Move (d, Instr.Imm c)

let r_add d a b = Instr.Binop (Instr.Add, d, Instr.Reg a, Instr.Reg b)

let with_regs n f =
  for _ = 1 to n do
    ignore (Func.new_reg f)
  done;
  f

let edge_cases =
  [
    ("no blocks", fun () -> Func.create ~name:"empty" ~arity:0 ~linkage:Func.Local);
    ( "branch to a missing label",
      fun () ->
        let f = with_regs 2 (Func.create ~name:"dangling" ~arity:1 ~linkage:Func.Local) in
        let exit_b = block f ~instrs:[ r_add 2 0 1 ] (Instr.Ret (Some (Instr.Reg 2))) in
        let entry =
          block f ~instrs:[ r_move 1 5L ]
            (Instr.Br { cond = Instr.Reg 0; ifso = exit_b.Func.label; ifnot = 99 })
        in
        f.Func.entry <- entry.Func.label;
        f );
    ( "unreachable blocks",
      fun () ->
        let f = with_regs 2 (Func.create ~name:"unreach" ~arity:1 ~linkage:Func.Local) in
        let exit_b = block f (Instr.Ret (Some (Instr.Reg 1))) in
        let head = block f (Instr.Jmp exit_b.Func.label) in
        let body = block f ~instrs:[ r_add 1 1 0 ] (Instr.Jmp head.Func.label) in
        head.Func.term <-
          Instr.Br { cond = Instr.Reg 1; ifso = body.Func.label; ifnot = exit_b.Func.label };
        let entry = block f ~instrs:[ r_move 1 3L ] (Instr.Jmp head.Func.label) in
        (* A dead block jumping into the live loop's body (the loop
           walk reaches it through predecessors), a dead loop feeding
           the live exit, and a dead block reading a register. *)
        ignore (block f ~instrs:[ r_move 2 1L ] (Instr.Jmp body.Func.label));
        let dead_head = block f ~instrs:[ r_add 2 2 0 ] (Instr.Jmp exit_b.Func.label) in
        let dead_body = block f (Instr.Jmp dead_head.Func.label) in
        dead_head.Func.term <-
          Instr.Br { cond = Instr.Reg 2; ifso = dead_body.Func.label; ifnot = exit_b.Func.label };
        ignore (block f ~instrs:[ r_add 1 2 2 ] (Instr.Ret (Some (Instr.Reg 1))));
        f.Func.entry <- entry.Func.label;
        f );
    ( "self-loops",
      fun () ->
        let f = with_regs 2 (Func.create ~name:"selfloop" ~arity:1 ~linkage:Func.Local) in
        let entry = block f ~instrs:[ r_add 0 0 0 ] (Instr.Jmp 0) in
        entry.Func.term <-
          Instr.Br { cond = Instr.Reg 0; ifso = entry.Func.label; ifnot = 1 };
        let spin = block f ~instrs:[ r_add 1 1 0 ] (Instr.Jmp 1) in
        spin.Func.term <-
          Instr.Br { cond = Instr.Reg 1; ifso = spin.Func.label; ifnot = 2 };
        ignore (block f (Instr.Ret (Some (Instr.Reg 1))));
        f.Func.entry <- entry.Func.label;
        f );
    ( "br with ifso = ifnot",
      fun () ->
        (* A loop whose body edges are all doubled, closed by a
           single back edge. *)
        let f = with_regs 2 (Func.create ~name:"dupedge" ~arity:1 ~linkage:Func.Local) in
        let dup a b = Instr.Br { cond = Instr.Reg a; ifso = b; ifnot = b } in
        let exit_b = block f (Instr.Ret (Some (Instr.Reg 2))) in
        let join = block f ~instrs:[ r_add 2 1 0 ] (Instr.Jmp exit_b.Func.label) in
        let head = block f ~instrs:[ r_move 1 1L ] (dup 0 join.Func.label) in
        let loop = block f ~instrs:[ r_add 1 1 0 ] (dup 1 head.Func.label) in
        join.Func.term <-
          Instr.Br { cond = Instr.Reg 2; ifso = loop.Func.label; ifnot = exit_b.Func.label };
        let entry = block f (Instr.Jmp loop.Func.label) in
        f.Func.entry <- entry.Func.label;
        f );
  ]

let test_edge_case build () =
  match check_func ~stage:"hand-built" (build ()) with
  | () -> ()
  | exception QCheck.Test.Test_fail (_, msgs) -> Alcotest.fail (String.concat "; " msgs)

let suite =
  Helpers.to_alcotest test_oracle_property
  :: List.map
       (fun (name, build) -> Alcotest.test_case ("oracle edge case: " ^ name) `Quick (test_edge_case build))
       edge_cases
