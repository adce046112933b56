(* Tests for the high-level optimizer: CFG cleanup, dominators, loops,
   liveness, the scalar passes, inlining, cloning, IPA, selectivity,
   and the phase/driver plumbing.  Transformation tests check both
   that the transformation happened and that observable behaviour is
   preserved. *)

module Instr = Cmo_il.Instr
module Func = Cmo_il.Func
module Ilmod = Cmo_il.Ilmod
module Interp = Cmo_il.Interp
module Callgraph = Cmo_il.Callgraph
module Verify = Cmo_il.Verify
module Ilcodec = Cmo_il.Ilcodec
module Cfg = Cmo_hlo.Cfg
module Dominators = Cmo_hlo.Dominators
module Loopinfo = Cmo_hlo.Loopinfo
module Liveness = Cmo_hlo.Liveness
module Constprop = Cmo_hlo.Constprop
module Copyprop = Cmo_hlo.Copyprop
module Valnum = Cmo_hlo.Valnum
module Dce = Cmo_hlo.Dce
module Licm = Cmo_hlo.Licm
module Inline = Cmo_hlo.Inline
module Clone = Cmo_hlo.Clone
module Ipa = Cmo_hlo.Ipa
module Selectivity = Cmo_hlo.Selectivity
module Phase = Cmo_hlo.Phase
module Hlo = Cmo_hlo.Hlo
module Loader = Cmo_naim.Loader
module Memstats = Cmo_naim.Memstats
module Db = Cmo_profile.Db
module Train = Cmo_profile.Train
module Correlate = Cmo_profile.Correlate
module Genprog = Cmo_workload.Genprog
module Suite = Cmo_workload.Suite

(* ---------- helpers ---------- *)

let compile = Helpers.compile

(* Snapshot a module (deep copy) so we can compare behaviour before
   and after a transformation. *)
let snapshot m = Ilcodec.decode_module (Ilcodec.encode_module m)

let find_func m name = Option.get (Ilmod.find_func m name)

(* Apply [pass] to every function of a fresh copy; check behaviour
   unchanged and return the transformed module plus total rewrites. *)
let check_pass_preserves ?input ~pass src =
  let original = compile src in
  let transformed = snapshot original in
  let n =
    List.fold_left (fun acc f -> acc + pass f) 0 transformed.Ilmod.funcs
  in
  Helpers.check_same_behaviour ?input "pass preserves behaviour" [ original ]
    [ transformed ];
  Alcotest.(check int) "still verifies" 0
    (List.length (Verify.check_program [ transformed ]));
  (transformed, n)

let loader_of_modules ?(machine_memory = 1 lsl 30) ?forced_level modules =
  let mem = Memstats.create () in
  let config =
    {
      Loader.default_config with
      Loader.machine_memory;
      forced_level;
    }
  in
  let loader = Loader.create config mem in
  List.iter (Loader.register_module loader) modules;
  loader

(* ---------- Cfg ---------- *)

let test_cfg_fold_constant_branch () =
  let src = "func main() { if (1) { return 42; } else { return 7; } }" in
  let m, _ = check_pass_preserves ~pass:(fun f ->
      let n = Cfg.fold_constant_branches f in
      ignore (Cfg.remove_unreachable f);
      n)
    src
  in
  let main = find_func m "main" in
  (* The dead arm must be gone. *)
  let has_const_branch =
    List.exists
      (fun (b : Func.block) ->
        match b.Func.term with Instr.Br _ -> true | _ -> false)
      main.Func.blocks
  in
  Alcotest.(check bool) "no branches left" false has_const_branch

let test_cfg_merge_straightline () =
  let src = "func main() { var a = 1; var b = a + 2; return b; }" in
  let m, _ = check_pass_preserves ~pass:(fun f ->
      ignore (Cfg.simplify f);
      0)
    src
  in
  let main = find_func m "main" in
  Alcotest.(check int) "single block after simplify" 1
    (List.length main.Func.blocks)

let test_cfg_thread_jumps () =
  let f = Func.create ~name:"f" ~arity:0 ~linkage:Func.Exported in
  let ret = Func.add_block f [] (Instr.Ret (Some (Instr.Imm 1L))) in
  let fwd = Func.add_block f [] (Instr.Jmp ret.Func.label) in
  let entry = Func.add_block f [] (Instr.Jmp fwd.Func.label) in
  f.Func.entry <- entry.Func.label;
  let n = Cfg.thread_jumps f in
  Alcotest.(check bool) "threaded" true (n > 0);
  Alcotest.(check (list int)) "entry goes straight to ret"
    [ ret.Func.label ]
    (Instr.targets (Func.find_block f entry.Func.label).Func.term)

let test_cfg_simplify_loop_safe () =
  (* An empty infinite loop must not send jump threading into a
     cycle. *)
  let f = Func.create ~name:"f" ~arity:0 ~linkage:Func.Exported in
  let b = Func.add_block f [] (Instr.Ret None) in
  b.Func.term <- Instr.Jmp b.Func.label;
  f.Func.entry <- b.Func.label;
  ignore (Cfg.simplify f);
  Alcotest.(check bool) "terminates" true true

(* ---------- Dominators / Loops / Liveness ---------- *)

let diamond () =
  let f = Func.create ~name:"f" ~arity:1 ~linkage:Func.Exported in
  let exit_b = Func.add_block f [] (Instr.Ret (Some (Instr.Reg 0))) in
  let left = Func.add_block f [] (Instr.Jmp exit_b.Func.label) in
  let right = Func.add_block f [] (Instr.Jmp exit_b.Func.label) in
  let entry =
    Func.add_block f []
      (Instr.Br { cond = Instr.Reg 0; ifso = left.Func.label; ifnot = right.Func.label })
  in
  f.Func.entry <- entry.Func.label;
  (f, entry, left, right, exit_b)

let test_dominators_diamond () =
  let f, entry, left, right, exit_b = diamond () in
  let doms = Dominators.compute f in
  Alcotest.(check (option int)) "entry has no idom" None
    (Dominators.idom doms entry.Func.label);
  Alcotest.(check (option int)) "left idom is entry" (Some entry.Func.label)
    (Dominators.idom doms left.Func.label);
  Alcotest.(check (option int)) "exit idom is entry" (Some entry.Func.label)
    (Dominators.idom doms exit_b.Func.label);
  Alcotest.(check bool) "entry dominates all" true
    (Dominators.dominates doms entry.Func.label exit_b.Func.label);
  Alcotest.(check bool) "left does not dominate exit" false
    (Dominators.dominates doms left.Func.label exit_b.Func.label);
  Alcotest.(check bool) "dominates is reflexive" true
    (Dominators.dominates doms right.Func.label right.Func.label)

let test_loopinfo_while () =
  let m = compile "func main() { var i = 0; while (i < 9) { i = i + 1; } return i; }" in
  let main = find_func m "main" in
  let loops = Loopinfo.loops (Loopinfo.compute main) in
  Alcotest.(check int) "one loop" 1 (List.length loops);
  let l = List.hd loops in
  Alcotest.(check int) "depth 1" 1 l.Loopinfo.depth;
  Alcotest.(check bool) "body has blocks" true (List.length l.Loopinfo.body >= 2)

let test_loopinfo_nested () =
  let m =
    compile
      {|
      func main() {
        var i = 0; var s = 0;
        while (i < 3) {
          var j = 0;
          while (j < 3) { s = s + 1; j = j + 1; }
          i = i + 1;
        }
        return s;
      }
      |}
  in
  let main = find_func m "main" in
  let li = Loopinfo.compute main in
  let depths = List.map (fun l -> l.Loopinfo.depth) (Loopinfo.loops li) in
  Alcotest.(check (list int)) "two loops, nested" [ 1; 2 ] (List.sort compare depths)

let test_loopinfo_no_loops () =
  let m = compile "func main() { return 3; }" in
  let main = find_func m "main" in
  Alcotest.(check int) "no loops" 0
    (List.length (Loopinfo.loops (Loopinfo.compute main)))

let test_liveness_param_live_through_branch () =
  let f, entry, _, _, _ = diamond () in
  let live = Liveness.compute f in
  Alcotest.(check (list int)) "r0 live out of entry" [ 0 ]
    (Liveness.live_out live entry.Func.label)

let test_liveness_dead_def () =
  let f = Func.create ~name:"f" ~arity:0 ~linkage:Func.Exported in
  let d = Func.new_reg f in
  let b =
    Func.add_block f
      [ Instr.Move (d, Instr.Imm 5L) ]
      (Instr.Ret (Some (Instr.Imm 0L)))
  in
  f.Func.entry <- b.Func.label;
  let live = Liveness.compute f in
  Alcotest.(check (list int)) "nothing live out" []
    (Liveness.live_out live b.Func.label);
  Alcotest.(check (list int)) "nothing live in" []
    (Liveness.live_in live b.Func.label)

(* ---------- Constprop ---------- *)

let test_constprop_folds_chain () =
  let src = "func main() { var a = 2; var b = a + 3; var c = b * 4; return c; }" in
  let m, n = check_pass_preserves ~pass:Constprop.run src in
  Alcotest.(check bool) "rewrote something" true (n > 0);
  let main = find_func m "main" in
  (* After folding, the return must be a constant. *)
  ignore (Cfg.simplify main);
  ignore (Dce.run main);
  let entry = Func.entry_block main in
  match entry.Func.term with
  | Instr.Ret (Some (Instr.Imm 20L)) -> ()
  | _ ->
    (* Ret of a reg whose value is 20 via a Move is acceptable too. *)
    Alcotest.(check int64) "returns 20" 20L
      (Interp.run_func [ m ] "main" []).Interp.ret

let test_constprop_through_join () =
  (* Both arms assign the same constant: it propagates past the join. *)
  let src =
    {|
    func main() {
      var x = 0;
      if (arg(0)) { x = 7; } else { x = 7; }
      return x + 1;
    }
    |}
  in
  let m, _ = check_pass_preserves ~input:[| 1L |] ~pass:Constprop.run src in
  let o = Interp.run ~input:[| 0L |] [ m ] in
  Alcotest.(check int64) "still 8" 8L o.Interp.ret

let test_constprop_divergent_join_not_folded () =
  let src =
    {|
    func main() {
      var x = 0;
      if (arg(0)) { x = 1; } else { x = 2; }
      return x;
    }
    |}
  in
  let original = compile src in
  let transformed = snapshot original in
  ignore (List.map Constprop.run transformed.Ilmod.funcs);
  List.iter
    (fun input ->
      Helpers.check_same_behaviour ~input "divergent join intact" [ original ]
        [ transformed ])
    [ [| 0L |]; [| 1L |] ]

let test_constprop_folds_branch_condition () =
  let src = "func main() { var a = 5; if (a > 3) { return 1; } return 0; }" in
  let m, _ = check_pass_preserves ~pass:Constprop.run src in
  let main = find_func m "main" in
  ignore (Cfg.simplify main);
  (* The branch folds away entirely. *)
  let branches =
    List.length
      (List.filter
         (fun (b : Func.block) ->
           match b.Func.term with Instr.Br _ -> true | _ -> false)
         main.Func.blocks)
  in
  Alcotest.(check int) "branch folded" 0 branches

let test_constprop_sparse_conditional () =
  (* The infeasible arm must not pollute the join: with [c] known
     true, [x] is 5 after the if, so the result folds completely.
     (A plain all-edges meet would see 5 meet 7 = Bottom.) *)
  let src =
    {|
    func main() {
      var c = 1;
      var x = 0;
      if (c) { x = 5; } else { x = 7; }
      return x + 1;
    }
    |}
  in
  let m, _ = check_pass_preserves ~pass:Constprop.run src in
  let main = find_func m "main" in
  ignore (Cfg.simplify main);
  ignore (Dce.run main);
  ignore (Cfg.simplify main);
  Alcotest.(check int) "collapsed to one block" 1 (List.length main.Func.blocks);
  match (Func.entry_block main).Func.term with
  | Instr.Ret (Some (Instr.Imm 6L)) -> ()
  | _ -> Alcotest.fail "join constant not folded"

let test_constprop_call_result_unknown () =
  let src =
    "func id(x) { return x; } func main() { var a = id(3); return a + 1; }"
  in
  let _, _ = check_pass_preserves ~pass:Constprop.run src in
  ()

(* ---------- Copyprop / Valnum / Dce ---------- *)

let test_copyprop_rewrites () =
  let f = Func.create ~name:"f" ~arity:1 ~linkage:Func.Exported in
  let a = Func.new_reg f in
  let b = Func.new_reg f in
  let blk =
    Func.add_block f
      [
        Instr.Move (a, Instr.Reg 0);
        Instr.Binop (Instr.Add, b, Instr.Reg a, Instr.Reg a);
      ]
      (Instr.Ret (Some (Instr.Reg b)))
  in
  f.Func.entry <- blk.Func.label;
  let n = Copyprop.run f in
  Alcotest.(check bool) "rewrote uses" true (n >= 2);
  match blk.Func.instrs with
  | [ _; Instr.Binop (Instr.Add, _, Instr.Reg 0, Instr.Reg 0) ] -> ()
  | _ -> Alcotest.fail "uses not redirected to r0"

let test_copyprop_stops_at_redefinition () =
  let f = Func.create ~name:"f" ~arity:2 ~linkage:Func.Exported in
  let a = Func.new_reg f in
  let b = Func.new_reg f in
  let blk =
    Func.add_block f
      [
        Instr.Move (a, Instr.Reg 0);
        Instr.Move (a, Instr.Reg 1);  (* redefinition *)
        Instr.Binop (Instr.Add, b, Instr.Reg a, Instr.Imm 0L);
      ]
      (Instr.Ret (Some (Instr.Reg b)))
  in
  f.Func.entry <- blk.Func.label;
  ignore (Copyprop.run f);
  match blk.Func.instrs with
  | [ _; _; Instr.Binop (Instr.Add, _, Instr.Reg r, _) ] ->
    Alcotest.(check int) "propagated the second copy" 1 r
  | _ -> Alcotest.fail "unexpected shape"

let test_valnum_cse () =
  let src =
    {|
    func main() {
      var a = arg(0);
      var x = a * 3 + 1;
      var y = a * 3 + 1;
      return x + y;
    }
    |}
  in
  let m, n = check_pass_preserves ~input:[| 5L |] ~pass:Valnum.run src in
  Alcotest.(check bool) "collapsed duplicates" true (n >= 1);
  let o = Interp.run ~input:[| 5L |] [ m ] in
  Alcotest.(check int64) "value right" 32L o.Interp.ret

let test_valnum_commutative () =
  let src =
    {|
    func main() {
      var a = arg(0);
      var b = arg(1);
      var x = a + b;
      var y = b + a;
      return x * y;
    }
    |}
  in
  let _, n = check_pass_preserves ~input:[| 2L; 3L |] ~pass:Valnum.run src in
  Alcotest.(check bool) "a+b matches b+a" true (n >= 1)

let test_valnum_load_cse_until_store () =
  let src =
    {|
    global g[4];
    func main() {
      g[0] = 5;
      var a = g[0];
      var b = g[0];
      g[0] = 9;
      var c = g[0];
      return a + b + c;
    }
    |}
  in
  let m, n = check_pass_preserves ~pass:Valnum.run src in
  Alcotest.(check bool) "redundant load collapsed" true (n >= 1);
  let o = Interp.run [ m ] in
  Alcotest.(check int64) "19" 19L o.Interp.ret

let test_valnum_call_blocks_load_cse () =
  let src =
    {|
    global g;
    func bump() { g = g + 1; return 0; }
    func main() {
      g = 1;
      var a = g;
      bump();
      var b = g;
      return a * 10 + b;
    }
    |}
  in
  let m, _ = check_pass_preserves ~pass:Valnum.run src in
  let o = Interp.run [ m ] in
  Alcotest.(check int64) "12 (load after call not collapsed)" 12L o.Interp.ret

let test_dce_removes_dead_pure () =
  let f = Func.create ~name:"f" ~arity:1 ~linkage:Func.Exported in
  let dead = Func.new_reg f in
  let live_r = Func.new_reg f in
  let blk =
    Func.add_block f
      [
        Instr.Binop (Instr.Mul, dead, Instr.Reg 0, Instr.Imm 100L);
        Instr.Binop (Instr.Add, live_r, Instr.Reg 0, Instr.Imm 1L);
      ]
      (Instr.Ret (Some (Instr.Reg live_r)))
  in
  f.Func.entry <- blk.Func.label;
  let n = Dce.run f in
  Alcotest.(check int) "one deleted" 1 n;
  Alcotest.(check int) "one left" 1 (List.length blk.Func.instrs)

let test_dce_keeps_stores_and_calls () =
  let src =
    {|
    global g;
    func side() { g = g + 1; return g; }
    func main() { side(); side(); return g; }
    |}
  in
  let m, _ = check_pass_preserves ~pass:Dce.run src in
  let o = Interp.run [ m ] in
  Alcotest.(check int64) "both calls survived" 2L o.Interp.ret

let test_dce_drops_unused_call_result () =
  let src = "func id(x) { return x; } func main() { id(5); return 1; }" in
  let m, _ = check_pass_preserves ~pass:Dce.run src in
  let main = find_func m "main" in
  let dst_none =
    List.exists
      (fun (b : Func.block) ->
        List.exists
          (fun i ->
            match i with
            | Instr.Call { dst = None; callee = "id"; _ } -> true
            | _ -> false)
          b.Func.instrs)
      main.Func.blocks
  in
  Alcotest.(check bool) "call kept, result dropped" true dst_none

let test_dce_respects_cross_block_liveness () =
  let src =
    {|
    func main() {
      var a = arg(0) * 2;
      if (arg(1)) { return a; }
      return 0;
    }
    |}
  in
  List.iter
    (fun input ->
      let original = compile src in
      let transformed = snapshot original in
      ignore (List.map Dce.run transformed.Ilmod.funcs);
      Helpers.check_same_behaviour ~input "live across blocks kept"
        [ original ] [ transformed ])
    [ [| 3L; 1L |]; [| 3L; 0L |] ]

(* ---------- LICM ---------- *)

let test_licm_hoists_invariant () =
  let src =
    {|
    func main() {
      var n = arg(0);
      var s = 0;
      var i = 0;
      while (i < n) {
        var inv = n * 7 + 3;
        s = s + inv;
        i = i + 1;
      }
      return s;
    }
    |}
  in
  let original = compile src in
  let transformed = snapshot original in
  let main_t = find_func transformed "main" in
  let hoisted = Licm.run main_t in
  Alcotest.(check bool) "hoisted something" true (hoisted >= 1);
  List.iter
    (fun input ->
      Helpers.check_same_behaviour ~input "licm preserves" [ original ]
        [ transformed ])
    [ [| 0L |]; [| 1L |]; [| 10L |] ];
  Alcotest.(check int) "verifies" 0
    (List.length (Verify.check_program [ transformed ]))

let test_licm_zero_iteration_safe () =
  (* The loop never runs: hoisted code must not change the result. *)
  let src =
    {|
    func main() {
      var s = 100;
      var i = 5;
      while (i < arg(0)) {
        var inv = 3 * 3;
        s = s + inv;
        i = i + 1;
      }
      return s;
    }
    |}
  in
  let original = compile src in
  let transformed = snapshot original in
  ignore (List.map Licm.run transformed.Ilmod.funcs);
  Helpers.check_same_behaviour ~input:[| 0L |] "zero-trip loop" [ original ]
    [ transformed ]

let test_licm_does_not_hoist_variant () =
  let src =
    {|
    func main() {
      var s = 0;
      var i = 0;
      while (i < 10) { s = s + i * 2; i = i + 1; }
      return s;
    }
    |}
  in
  let original = compile src in
  let transformed = snapshot original in
  ignore (List.map Licm.run transformed.Ilmod.funcs);
  Helpers.check_same_behaviour "variant not hoisted" [ original ] [ transformed ]

let test_licm_hoists_load_when_no_clobber () =
  let src =
    {|
    global k = 21;
    func main() {
      var s = 0;
      var i = 0;
      while (i < 4) { s = s + k; i = i + 1; }
      return s;
    }
    |}
  in
  let original = compile src in
  let transformed = snapshot original in
  let n = Licm.run (find_func transformed "main") in
  Alcotest.(check bool) "load hoisted" true (n >= 1);
  Helpers.check_same_behaviour "load hoist preserves" [ original ] [ transformed ]

let test_licm_no_load_hoist_with_store () =
  let src =
    {|
    global k = 1;
    func main() {
      var s = 0;
      var i = 0;
      while (i < 4) { k = k + 1; s = s + k; i = i + 1; }
      return s;
    }
    |}
  in
  let original = compile src in
  let transformed = snapshot original in
  ignore (Licm.run (find_func transformed "main"));
  Helpers.check_same_behaviour "clobbered load stays" [ original ] [ transformed ]

(* ---------- Unroll ---------- *)

let count_loops f = List.length (Cmo_hlo.Loopinfo.loops (Cmo_hlo.Loopinfo.compute f))

let test_unroll_constant_trip () =
  let src =
    {|
    global out[8];
    func main() {
      var s = 0;
      var i = 0;
      while (i < 6) { s = s + i * 3; out[i] = s; i = i + 1; }
      return s + out[2];
    }
    |}
  in
  let original = compile src in
  let transformed = snapshot original in
  let main = find_func transformed "main" in
  (* Normalize then unroll, as the phase pipeline does. *)
  ignore (Constprop.run main);
  ignore (Cfg.simplify main);
  let n = Cmo_hlo.Unroll.run main in
  Alcotest.(check int) "one loop unrolled" 1 n;
  Alcotest.(check int) "no loops left" 0 (count_loops main);
  Helpers.check_same_behaviour "unroll preserves" [ original ] [ transformed ];
  Alcotest.(check int) "verifies" 0
    (List.length (Verify.check_program [ transformed ]))

let test_unroll_zero_trip () =
  let src =
    {|
    global g;
    func main() {
      var i = 9;
      while (i < 3) { g = g + 1; i = i + 1; }
      return g + i;
    }
    |}
  in
  let original = compile src in
  let transformed = snapshot original in
  let main = find_func transformed "main" in
  (* Sparse-conditional constant propagation may already prove the
     loop dead; either way no loop survives and behaviour holds. *)
  ignore (Constprop.run main);
  ignore (Cfg.simplify main);
  ignore (Cmo_hlo.Unroll.run main);
  ignore (Cfg.simplify main);
  Alcotest.(check int) "zero-trip loop eliminated" 0 (count_loops main);
  Helpers.check_same_behaviour "zero-trip preserves" [ original ] [ transformed ]

let test_unroll_side_effect_counts () =
  (* Calls in the loop body must execute exactly trip times. *)
  let src =
    {|
    func main() {
      var i = 0;
      while (i < 4) { print(i); i = i + 1; }
      return i;
    }
    |}
  in
  let original = compile src in
  let transformed = snapshot original in
  let main = find_func transformed "main" in
  ignore (Constprop.run main);
  ignore (Cfg.simplify main);
  Alcotest.(check int) "unrolled" 1 (Cmo_hlo.Unroll.run main);
  Helpers.check_same_behaviour "prints preserved in order" [ original ]
    [ transformed ];
  (* Duplicated calls must carry unique site ids. *)
  Alcotest.(check int) "verifies (unique sites)" 0
    (List.length (Verify.check_program [ transformed ]))

let test_unroll_skips_variable_bound () =
  let src =
    {|
    func main() {
      var n = arg(0);
      var s = 0;
      var i = 0;
      while (i < n) { s = s + i; i = i + 1; }
      return s;
    }
    |}
  in
  let m = compile src in
  let main = find_func m "main" in
  ignore (Constprop.run main);
  Alcotest.(check int) "variable bound not unrolled" 0 (Cmo_hlo.Unroll.run main)

let test_unroll_respects_budget () =
  let src =
    {|
    global g;
    func main() {
      var i = 0;
      while (i < 500) { g = g + i; i = i + 1; }
      return g;
    }
    |}
  in
  let m = compile src in
  let main = find_func m "main" in
  ignore (Constprop.run main);
  Alcotest.(check int) "big trip not unrolled" 0 (Cmo_hlo.Unroll.run main)

let test_unroll_then_constprop_folds () =
  (* After unrolling, the induction variable is a chain of constants
     that the next constprop round folds completely. *)
  let src =
    "func main() { var s = 0; var i = 0; while (i < 5) { s = s + i; i = i + 1; } return s; }"
  in
  let m = compile src in
  let main = find_func m "main" in
  let total = Phase.optimize_func main in
  Alcotest.(check bool) "pipeline did work" true (total > 0);
  let o = Interp.run [ m ] in
  Alcotest.(check int64) "sum 0..4" 10L o.Interp.ret;
  (* The whole function should now be straight-line. *)
  Alcotest.(check int) "no loops left" 0 (count_loops main)

let test_valnum_superlocal_across_branch () =
  (* [a * 7] is computed before the branch; both arms recompute it.
     Superlocal numbering collapses the copies inside the arms. *)
  let src =
    {|
    func main() {
      var a = arg(0);
      var x = a * 7;
      var r = 0;
      if (arg(1)) { r = a * 7 + 1; } else { r = a * 7 - 1; }
      return r + x;
    }
    |}
  in
  let original = compile src in
  let transformed = snapshot original in
  let n =
    List.fold_left (fun acc f -> acc + Valnum.run f) 0 transformed.Ilmod.funcs
  in
  Alcotest.(check bool) "collapsed across the branch" true (n >= 2);
  List.iter
    (fun input ->
      Helpers.check_same_behaviour ~input "superlocal preserves" [ original ]
        [ transformed ])
    [ [| 3L; 0L |]; [| 3L; 1L |] ]

let test_valnum_join_point_fresh () =
  (* After the join, values computed in only one arm must NOT be
     reused: behaviour on both paths must stay correct. *)
  let src =
    {|
    func main() {
      var a = arg(0);
      var r = 0;
      if (arg(1)) { r = a * 9; } else { r = a + 1; }
      var y = a * 9;
      return r + y;
    }
    |}
  in
  let original = compile src in
  let transformed = snapshot original in
  ignore (List.map Valnum.run transformed.Ilmod.funcs);
  List.iter
    (fun input ->
      Helpers.check_same_behaviour ~input "join handled" [ original ]
        [ transformed ])
    [ [| 5L; 0L |]; [| 5L; 1L |] ]

let test_valnum_redundant_branch_elimination () =
  (* The inner re-test of [c] on both arms is redundant: the paper's
     "redundant branch elimination". *)
  let src =
    {|
    func main() {
      var c = arg(0) > 10;
      var r = 0;
      if (c) {
        if (c) { r = 1; } else { r = 2; }
      } else {
        if (c) { r = 3; } else { r = 4; }
      }
      return r;
    }
    |}
  in
  let original = compile src in
  let transformed = snapshot original in
  let main = find_func transformed "main" in
  let n = Valnum.run main in
  Alcotest.(check bool) "folded inner branches" true (n >= 2);
  ignore (Cfg.simplify main);
  let branches =
    List.length
      (List.filter
         (fun (b : Func.block) ->
           match b.Func.term with Instr.Br _ -> true | _ -> false)
         main.Func.blocks)
  in
  Alcotest.(check int) "one branch remains" 1 branches;
  List.iter
    (fun input ->
      Helpers.check_same_behaviour ~input "branch folding preserves"
        [ original ] [ transformed ])
    [ [| 0L |]; [| 50L |] ]

let test_valnum_branch_facts_killed_by_redefinition () =
  (* Reassigning the condition between the tests blocks the fold. *)
  let src =
    {|
    func main() {
      var c = arg(0) > 10;
      var r = 0;
      if (c) {
        c = arg(1) > 5;
        if (c) { r = 1; } else { r = 2; }
      }
      return r;
    }
    |}
  in
  let original = compile src in
  let transformed = snapshot original in
  ignore (List.map Valnum.run transformed.Ilmod.funcs);
  List.iter
    (fun input ->
      Helpers.check_same_behaviour ~input "redefinition respected"
        [ original ] [ transformed ])
    [ [| 50L; 9L |]; [| 50L; 0L |]; [| 0L; 9L |] ]

(* ---------- memory disambiguation ---------- *)

let test_valnum_disambiguates_globals () =
  let src =
    {|
    global a;
    global b;
    func main() {
      a = 5;
      var x = a;
      b = 9;
      var y = a;
      return x + y + b;
    }
    |}
  in
  let m, n = check_pass_preserves ~pass:Valnum.run src in
  (* The second load of [a] survives the store to [b]. *)
  Alcotest.(check bool) "load of a collapsed across store to b" true (n >= 1);
  let o = Interp.run [ m ] in
  Alcotest.(check int64) "value" 19L o.Interp.ret

let test_valnum_same_global_still_killed () =
  let src =
    {|
    global a[4];
    func main() {
      a[0] = 5;
      var x = a[0];
      a[1] = 9;
      var y = a[0];
      return x + y;
    }
    |}
  in
  (* A store to a different index of the SAME global must still kill
     the load (the index may alias dynamically in general). *)
  let original = compile src in
  let transformed = snapshot original in
  ignore (List.map Valnum.run transformed.Ilmod.funcs);
  Helpers.check_same_behaviour "same-base store kills" [ original ] [ transformed ]

(* ---------- Inline ---------- *)

let two_module_sources =
  [
    ( "app",
      {|
      func main() {
        var s = 0;
        var i = 0;
        while (i < 50) { s = s + helper(i); i = i + 1; }
        return s;
      }
      |} );
    ("lib", "func helper(x) { return x * 2 + 1; }");
  ]

let test_inline_call_at_basic () =
  let modules = Helpers.compile_all two_module_sources in
  let original = List.map snapshot modules in
  let app = List.nth modules 0 in
  let lib = List.nth modules 1 in
  let main = find_func app "main" in
  let helper = find_func lib "helper" in
  let site, _ = List.hd (Func.site_calls main) in
  Alcotest.(check bool) "inlined" true
    (Inline.inline_call_at ~caller:main ~site ~callee:helper);
  (* No call to helper remains in main. *)
  let still_calls =
    List.exists (fun (_, c) -> c.Instr.callee = "helper") (Func.site_calls main)
  in
  Alcotest.(check bool) "call gone" false still_calls;
  Helpers.check_same_behaviour "inline preserves" original modules;
  Alcotest.(check int) "verifies" 0 (List.length (Verify.check_program modules))

let test_inline_call_at_wrong_site () =
  let modules = Helpers.compile_all two_module_sources in
  let main = find_func (List.nth modules 0) "main" in
  let helper = find_func (List.nth modules 1) "helper" in
  Alcotest.(check bool) "bogus site rejected" false
    (Inline.inline_call_at ~caller:main ~site:999 ~callee:helper)

let test_inline_void_call () =
  let sources =
    [
      ("app", "global g; func main() { poke(); poke(); return g; }");
      ("lib", "extern global g; func poke() { g = g + 1; return 0; }");
    ]
  in
  let modules = Helpers.compile_all sources in
  let original = List.map snapshot modules in
  let app = List.nth modules 0 in
  let lib = List.nth modules 1 in
  let main = find_func app "main" in
  let poke = find_func lib "poke" in
  List.iter
    (fun (site, (c : Instr.call)) ->
      if c.Instr.callee = "poke" then
        ignore (Inline.inline_call_at ~caller:main ~site ~callee:poke))
    (Func.site_calls main);
  Helpers.check_same_behaviour "void inline preserves" original modules

let test_inline_recursive_callee_body () =
  (* Inlining one level of a recursive function via the low-level
     entry point must keep behaviour (the spliced body calls the
     original). *)
  let src =
    {|
    func fib(n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    func main() { return fib(12); }
    |}
  in
  let m = compile src in
  let original = snapshot m in
  let main = find_func m "main" in
  let fib = find_func m "fib" in
  let site, _ = List.hd (Func.site_calls main) in
  Alcotest.(check bool) "spliced" true
    (Inline.inline_call_at ~caller:main ~site ~callee:fib);
  Helpers.check_same_behaviour "one-level unroll preserves" [ original ] [ m ]

let test_inline_run_cross_module () =
  let modules = Helpers.compile_all two_module_sources in
  let original = List.map snapshot modules in
  let cg = Callgraph.build modules in
  let loader = loader_of_modules modules in
  let stats =
    Inline.run loader cg
      { Inline.default_config with Inline.use_profile = false }
  in
  Alcotest.(check bool) "inlined the helper" true (stats.Inline.operations >= 1);
  Alcotest.(check bool) "cross-module counted" true (stats.Inline.cross_module >= 1);
  let result = Loader.extract_modules loader in
  Helpers.check_same_behaviour "driver inline preserves" original result;
  Loader.close loader

let test_inline_respects_operation_limit () =
  let modules = Helpers.compile_all two_module_sources in
  let cg = Callgraph.build modules in
  let loader = loader_of_modules modules in
  let stats =
    Inline.run loader cg
      { Inline.default_config with Inline.use_profile = false; operation_limit = Some 0 }
  in
  Alcotest.(check int) "no operations" 0 stats.Inline.operations;
  Loader.close loader

let test_inline_profile_scaling () =
  let modules = Helpers.compile_all two_module_sources in
  let db = Db.create () in
  let _ = Train.run modules db in
  ignore (Correlate.annotate db modules);
  let app = List.nth modules 0 in
  let lib = List.nth modules 1 in
  let main = find_func app "main" in
  let helper = find_func lib "helper" in
  let site, _ = List.hd (Func.site_calls main) in
  ignore (Inline.inline_call_at ~caller:main ~site ~callee:helper);
  (* The inlined body was executed 50 times: some spliced block must
     carry (approximately) that frequency. *)
  let has_hot_block =
    List.exists (fun (b : Func.block) -> b.Func.freq = 50.0) main.Func.blocks
  in
  Alcotest.(check bool) "frequencies scaled into caller" true has_hot_block

let test_inline_skips_recursive_in_driver () =
  let src =
    "func f(n) { if (n < 1) { return 0; } return f(n - 1) + 1; } func main() { return f(9); }"
  in
  let m = compile src in
  let cg = Callgraph.build [ m ] in
  let loader = loader_of_modules [ m ] in
  let stats =
    Inline.run loader cg { Inline.aggressive_no_profile with Inline.operation_limit = None }
  in
  Alcotest.(check int) "no recursive inlines" 0 stats.Inline.operations;
  Loader.close loader

let test_inline_rejection_diagnostics () =
  (* One hot site with an oversized callee, one cold site, one
     recursive callee: each must land in its rejection bucket. *)
  let big_body =
    String.concat "\n"
      (List.init 80 (fun i ->
           Printf.sprintf "  s = (s + x * %d) & 65535;" (i + 3)))
  in
  let src =
    Printf.sprintf
      {|
      func big(x) {
        var s = 0;
      %s
        return s;
      }
      func self(n) { if (n < 1) { return 0; } return self(n - 1); }
      func coldfn(x) {
        var s = x;
        var i = 0;
        while (i < 20) {
          s = (s * 3 + i) & 1023;
          s = (s ^ (i << 2)) + (s >> 1);
          s = (s * 5 - i * 7) & 4095;
          s = s + ((i * i) & 31);
          i = i + 1;
        }
        return s;
      }
      func main() {
        var s = 0;
        var i = 0;
        while (i < 3000) { s = (s + big(i)) & 65535; i = i + 1; }
        s = s + self(5);
        if (s < 0) { s = coldfn(s); }
        return s;
      }
      |}
      big_body
  in
  let m = compile src in
  let db = Db.create () in
  let _ = Train.run [ m ] db in
  ignore (Correlate.annotate db [ m ]);
  let cg = Callgraph.build [ m ] in
  let loader = loader_of_modules [ m ] in
  let stats =
    Inline.run loader cg
      { Inline.default_config with Inline.hot_size_limit = 60 }
  in
  Alcotest.(check bool) "big rejected as too big" true
    (stats.Inline.rejected_too_big >= 1);
  Alcotest.(check bool) "recursive rejected" true
    (stats.Inline.rejected_recursive >= 1);
  Alcotest.(check bool) "cold site rejected" true
    (stats.Inline.rejected_cold >= 1);
  Loader.close loader

(* ---------- Ipa ---------- *)

let test_ipa_const_params () =
  let src =
    {|
    static func scaled(x, k) { return x * k; }
    func main() {
      var s = 0;
      var i = 0;
      while (i < 5) { s = s + scaled(i, 10); i = i + 1; }
      return s;
    }
    |}
  in
  let m = compile src in
  let original = snapshot m in
  let loader = loader_of_modules [ m ] in
  let stats = Ipa.run loader Ipa.whole_program in
  Alcotest.(check int) "k pinned" 1 stats.Ipa.const_params;
  let result = Loader.extract_modules loader in
  let scaled =
    List.find
      (fun (f : Func.t) -> String.ends_with ~suffix:"scaled" f.Func.name)
      (List.concat_map (fun m -> m.Ilmod.funcs) result)
  in
  (match (Func.entry_block scaled).Func.instrs with
  | Instr.Move (1, Instr.Imm 10L) :: _ -> ()
  | _ -> Alcotest.fail "k not pinned at entry");
  Helpers.check_same_behaviour "ipa preserves" [ original ] result;
  Loader.close loader

let test_ipa_varying_param_not_pinned () =
  let src =
    {|
    static func scaled(x, k) { return x * k; }
    func main() { return scaled(1, 10) + scaled(2, 20); }
    |}
  in
  let m = compile src in
  let loader = loader_of_modules [ m ] in
  let stats = Ipa.run loader Ipa.whole_program in
  Alcotest.(check int) "nothing pinned" 0 stats.Ipa.const_params;
  Loader.close loader

let test_ipa_externally_called_not_pinned () =
  let src = "func api(x) { return x + 1; } func main() { return api(3); }" in
  let m = compile src in
  let loader = loader_of_modules [ m ] in
  let ctx =
    { Ipa.whole_program with Ipa.externally_called = (fun n -> n = "api") }
  in
  let stats = Ipa.run loader ctx in
  Alcotest.(check int) "api params untouched" 0 stats.Ipa.const_params;
  Loader.close loader

let test_ipa_const_global_folded () =
  let src =
    {|
    global table[4] = {10, 20, 30, 40};
    func main() { return table[1] + table[2]; }
    |}
  in
  let m = compile src in
  let original = snapshot m in
  let loader = loader_of_modules [ m ] in
  let stats = Ipa.run loader Ipa.whole_program in
  Alcotest.(check int) "two loads folded" 2 stats.Ipa.const_global_loads;
  let result = Loader.extract_modules loader in
  List.iter
    (fun (b : Func.block) ->
      List.iter
        (function
          | Instr.Load _ -> Alcotest.fail "a table load survived"
          | _ -> ())
        b.Func.instrs)
    (find_func (List.hd result) "main").Func.blocks;
  Helpers.check_same_behaviour "const global preserves" [ original ] result;
  Loader.close loader

let test_ipa_stored_global_not_folded () =
  let src =
    {|
    global t[2] = {1, 2};
    func main() { t[0] = 9; return t[0]; }
    |}
  in
  let m = compile src in
  let loader = loader_of_modules [ m ] in
  let stats = Ipa.run loader Ipa.whole_program in
  Alcotest.(check int) "no folds" 0 stats.Ipa.const_global_loads;
  Loader.close loader

let test_ipa_externally_stored_not_folded () =
  let src = "global cfg = 5; func main() { return cfg; }" in
  let m = compile src in
  let loader = loader_of_modules [ m ] in
  let ctx =
    { Ipa.whole_program with Ipa.externally_stored = (fun n -> n = "cfg") }
  in
  let stats = Ipa.run loader ctx in
  Alcotest.(check int) "no folds for extern-stored" 0 stats.Ipa.const_global_loads;
  Loader.close loader

let test_ipa_dead_function_removed () =
  (* Static (module-private) functions with no remaining callers are
     dead; exported functions survive under the shipped-application
     context (their entry points stay callable). *)
  let src =
    {|
    static func unused() { return 1; }
    func unused_exported() { return 3; }
    func used() { return 2; }
    func main() { return used(); }
    |}
  in
  let m = compile ~name:"mm" src in
  let loader = loader_of_modules [ m ] in
  let stats = Ipa.run loader Ipa.whole_program in
  Alcotest.(check (list string)) "static unused removed" [ "mm::unused" ]
    stats.Ipa.dead_functions;
  Alcotest.(check (list string)) "survivors"
    [ "unused_exported"; "used"; "main" ]
    (Loader.func_names loader);
  Loader.close loader

let test_ipa_closed_world_removes_exported () =
  let src =
    {|
    func unused() { return 1; }
    func used() { return 2; }
    func main() { return used(); }
    |}
  in
  let m = compile src in
  let loader = loader_of_modules [ m ] in
  let stats = Ipa.run loader Ipa.closed_world in
  Alcotest.(check (list string)) "unused removed" [ "unused" ]
    stats.Ipa.dead_functions;
  Loader.close loader

let test_ipa_externally_called_kept () =
  let src = "func plugin_hook() { return 1; } func main() { return 0; }" in
  let m = compile src in
  let loader = loader_of_modules [ m ] in
  let ctx =
    { Ipa.whole_program with Ipa.externally_called = (fun n -> n = "plugin_hook") }
  in
  let stats = Ipa.run loader ctx in
  Alcotest.(check (list string)) "nothing removed" [] stats.Ipa.dead_functions;
  Loader.close loader

(* ---------- Clone ---------- *)

let test_clone_specializes_hot_const_site () =
  let src =
    {|
    func kernel(x, mode) {
      var r = 0;
      var i = 0;
      while (i < 10) {
        if (mode == 1) { r = r + x * i; } else { r = r - x * i; }
        i = i + 1;
      }
      return r;
    }
    func main() {
      var s = 0;
      var j = 0;
      while (j < 100) { s = s + kernel(j, 1); j = j + 1; }
      return s;
    }
    |}
  in
  let m = compile src in
  let original = snapshot m in
  let db = Db.create () in
  let _ = Train.run [ m ] db in
  ignore (Correlate.annotate db [ m ]);
  let cg = Callgraph.build [ m ] in
  let loader = loader_of_modules [ m ] in
  let clones =
    Clone.run loader cg
      { Clone.default_config with Clone.hot_count = 50.0; min_callee_size = 5 }
  in
  Alcotest.(check int) "one clone" 1 clones;
  let result = Loader.extract_modules loader in
  Helpers.check_same_behaviour "clone preserves" [ original ] result;
  Alcotest.(check bool) "clone function exists" true
    (List.exists
       (fun f -> f.Func.name = "kernel$c0")
       (List.concat_map (fun m -> m.Ilmod.funcs) result));
  Loader.close loader

let test_clone_shared_between_identical_sites () =
  let src =
    {|
    func op(x, k) {
      var r = 0; var i = 0;
      while (i < 5) { r = r + x * k; i = i + 1; }
      return r;
    }
    func main() {
      var s = 0; var j = 0;
      while (j < 100) { s = s + op(j, 3) + op(j + 1, 3); j = j + 1; }
      return s;
    }
    |}
  in
  let m = compile src in
  let db = Db.create () in
  let _ = Train.run [ m ] db in
  ignore (Correlate.annotate db [ m ]);
  let cg = Callgraph.build [ m ] in
  let loader = loader_of_modules [ m ] in
  let clones =
    Clone.run loader cg
      { Clone.default_config with Clone.hot_count = 50.0; min_callee_size = 3 }
  in
  Alcotest.(check int) "one shared clone" 1 clones;
  Loader.close loader

let test_clone_cold_site_ignored () =
  let src =
    {|
    func op(x, k) {
      var r = 0; var i = 0;
      while (i < 5) { r = r + x * k; i = i + 1; }
      return r;
    }
    func main() { return op(2, 3); }
    |}
  in
  let m = compile src in
  (* No profile: counts are zero. *)
  let cg = Callgraph.build [ m ] in
  let loader = loader_of_modules [ m ] in
  let clones = Clone.run loader cg Clone.default_config in
  Alcotest.(check int) "no clones" 0 clones;
  Loader.close loader

(* ---------- Selectivity ---------- *)

let selectivity_program () =
  let sources =
    [
      ( "hotmod",
        {|
        func hot(x) { return x * 3; }
        func main() {
          var s = 0;
          var i = 0;
          while (i < 1000) { s = s + hot(i); i = i + 1; }
          if (s < 0) { s = coldfn(s); }
          return s;
        }
        |} );
      ( "coldmod",
        {|
        func coldfn(x) {
          var r = 0;
          var i = 0;
          while (i < x) {
            if (i % 3 == 0) { r = r + i * 7; } else { r = r - i; }
            if (i % 5 == 1) { r = r ^ (i << 2); }
            r = r + (i * i) % 13 + (r >> 3);
            i = i + 1;
          }
          return r - 1;
        }
        |} );
    ]
  in
  let modules = Helpers.compile_all sources in
  let db = Db.create () in
  let _ = Train.run modules db in
  ignore (Correlate.annotate db modules);
  modules

let test_selectivity_picks_hot_sites () =
  let modules = selectivity_program () in
  let sel = Selectivity.select ~percent:50.0 modules in
  Alcotest.(check bool) "hot function selected" true
    (Selectivity.is_hot_function sel "hot");
  Alcotest.(check bool) "main selected (caller)" true
    (Selectivity.is_hot_function sel "main");
  Alcotest.(check (list string)) "only hot module in CMO set" [ "hotmod" ]
    sel.Selectivity.cmo_modules

let test_selectivity_zero_percent () =
  let modules = selectivity_program () in
  let sel = Selectivity.select ~percent:0.0 modules in
  Alcotest.(check int) "no sites" 0 (List.length sel.Selectivity.selected_sites);
  Alcotest.(check (list string)) "no modules" [] sel.Selectivity.cmo_modules

let test_selectivity_hundred_percent_excludes_cold () =
  let modules = selectivity_program () in
  let sel = Selectivity.select ~percent:100.0 modules in
  (* coldfn's site never ran: zero-count sites are never selected. *)
  Alcotest.(check bool) "cold site not selected" true
    (List.length sel.Selectivity.selected_sites < sel.Selectivity.sites_total);
  Alcotest.(check bool) "coldfn not hot" false
    (Selectivity.is_hot_function sel "coldfn")

let test_selectivity_deterministic () =
  let modules = selectivity_program () in
  let a = Selectivity.select ~percent:30.0 modules in
  let b = Selectivity.select ~percent:30.0 modules in
  Alcotest.(check bool) "same selection" true
    (a.Selectivity.selected_sites = b.Selectivity.selected_sites)

(* ---------- Phase / Hlo driver ---------- *)

let test_phase_fixpoint_and_budget () =
  let src =
    {|
    func main() {
      var a = 2;
      var b = a * 3;
      var c = b + b;
      var dead = c * 100;
      if (c > 0) { return c; }
      return dead;
    }
    |}
  in
  let m = compile src in
  let original = snapshot m in
  let n = Phase.optimize_func (find_func m "main") in
  Alcotest.(check bool) "did work" true (n > 0);
  Helpers.check_same_behaviour "phase pipeline preserves" [ original ] [ m ];
  (* A second run is a fixpoint. *)
  Alcotest.(check int) "fixpoint" 0 (Phase.optimize_func (find_func m "main"))

let test_phase_budget_limits () =
  let src = "func main() { var a = 2; var b = a * 3; return b + b; }" in
  let m = compile src in
  let budget = Phase.limited 0 in
  let n = Phase.optimize_func ~budget (find_func m "main") in
  Alcotest.(check int) "no work under zero budget" 0 n

let test_phase_charges_derived_memory () =
  let src = "func main() { var i = 0; while (i < 5) { i = i + 1; } return i; }" in
  let m = compile src in
  let mem = Memstats.create () in
  ignore (Phase.optimize_func ~mem (find_func m "main"));
  Alcotest.(check int) "derived released at end" 0
    (Memstats.resident_of mem Memstats.Derived);
  Alcotest.(check bool) "derived was charged" true (Memstats.peak mem > 0)

let test_hlo_o4_end_to_end () =
  let modules = Helpers.compile_all two_module_sources in
  let original = List.map snapshot modules in
  let db = Db.create () in
  let _ = Train.run modules db in
  ignore (Correlate.annotate db modules);
  let cg = Callgraph.build modules in
  let loader = loader_of_modules modules in
  let report = Hlo.run loader cg (Hlo.o4_options ~profile:true) in
  Alcotest.(check bool) "optimized functions" true (report.Hlo.funcs_optimized > 0);
  let result = Loader.extract_modules loader in
  Helpers.check_same_behaviour "o4 preserves behaviour" original result;
  Alcotest.(check int) "verifies" 0 (List.length (Verify.check_program result));
  Loader.close loader

let test_hlo_o4_faster_than_o2 () =
  (* CMO+PBO must reduce interpreter step counts on a call-heavy
     program (the Figure 1 effect, in miniature). *)
  let modules () = Helpers.compile_all two_module_sources in
  let baseline = Interp.run (modules ()) in
  let opt_modules = modules () in
  let db = Db.create () in
  let _ = Train.run opt_modules db in
  ignore (Correlate.annotate db opt_modules);
  let cg = Callgraph.build opt_modules in
  let loader = loader_of_modules opt_modules in
  ignore (Hlo.run loader cg (Hlo.o4_options ~profile:true));
  let result = Loader.extract_modules loader in
  let optimized = Interp.run result in
  Alcotest.(check int64) "same answer" baseline.Interp.ret optimized.Interp.ret;
  Alcotest.(check bool)
    (Printf.sprintf "fewer steps: %d < %d" optimized.Interp.steps baseline.Interp.steps)
    true
    (optimized.Interp.steps < baseline.Interp.steps);
  Loader.close loader

let test_hlo_fine_selectivity_skips_cold () =
  let modules = selectivity_program () in
  let sel = Selectivity.select ~percent:50.0 modules in
  let cg = Callgraph.build modules in
  let loader = loader_of_modules modules in
  let options =
    { (Hlo.o4_options ~profile:true) with
      Hlo.hot_filter = Some (Selectivity.is_hot_function sel) }
  in
  let report = Hlo.run loader cg options in
  Alcotest.(check bool) "skipped cold functions" true (report.Hlo.funcs_skipped > 0);
  Loader.close loader

(* ---------- HLO staging equivalence ---------- *)

(* [Hlo.run] takes IPA summaries during inlining, applies IPA's
   transforms inside the phase sweep, skips clone callers without a
   candidate edge, and lets the loader reuse unmodified encodings.
   The staged reference runs each stage as a whole-loader sweep
   instead: clone, inline, [Ipa.run], then the phase loop. *)
let small_mcad1 () =
  let cfg =
    { (Genprog.scale (Suite.find "mcad1") 0.02) with Genprog.main_iters = 400 }
  in
  let modules = Helpers.compile_all (Genprog.generate cfg) in
  let db = Db.create () in
  let _ = Train.run ~input:(Genprog.training_input cfg) modules db in
  ignore (Correlate.annotate db modules);
  modules

let profiled_two_module () =
  let modules = Helpers.compile_all two_module_sources in
  let db = Db.create () in
  let _ = Train.run modules db in
  ignore (Correlate.annotate db modules);
  modules

(* A hot constant-argument site worth cloning, a cold static routine
   whose only caller passes constants, and a never-stored table. *)
let clone_ipa_program () =
  let sources =
    [
      ( "app",
        {|
        static global table[4] = {5, 6, 7, 8};
        static func mix(a, b) {
          var r = 0;
          var i = 0;
          while (i < a) {
            r = r + i * b;
            if (r > 1000) { r = r - 999; }
            i = i + 1;
          }
          return r + table[1];
        }
        func main() {
          var s = 0;
          var i = 0;
          while (i < 1500) { s = s + work(i, 3); i = i + 1; }
          s = s + mix(4, 9);
          return s + table[2];
        }
        |} );
      ( "lib",
        {|
        func work(x, k) {
          var r = x;
          if (k > 2) { r = r * k + 1; } else { r = r - k; }
          if (k == 3) { r = r ^ 5; }
          var j = 0;
          while (j < k) { r = r + j; j = j + 1; }
          return r & 1023;
        }
        |} );
    ]
  in
  let modules = Helpers.compile_all sources in
  let db = Db.create () in
  let _ = Train.run modules db in
  ignore (Correlate.annotate db modules);
  modules

let staged_reference modules (options : Hlo.options) =
  let cg = Callgraph.build modules in
  let loader = loader_of_modules modules in
  Option.iter (fun c -> ignore (Clone.run loader cg c)) options.Hlo.clone;
  Option.iter (fun c -> ignore (Inline.run loader cg c)) options.Hlo.inline;
  let stats = if options.Hlo.ipa then Some (Ipa.run loader Ipa.whole_program) else None in
  let mem = Loader.memstats loader in
  List.iter
    (fun fname ->
      let hot = match options.Hlo.hot_filter with Some h -> h fname | None -> true in
      if hot then
        Loader.with_func loader fname (fun f ->
            ignore (Phase.optimize_func ~mem f);
            Loader.update loader f))
    (Loader.func_names loader);
  let bytes = List.map Ilcodec.encode_module (Loader.extract_modules loader) in
  Loader.close loader;
  (bytes, stats)

let reused_encodings () =
  Option.value ~default:0.0
    (List.assoc_opt "naim.loader/reused_encodings" (Cmo_obs.Obs.counter_totals ()))

let check_staging_equivalent name make options =
  let ref_bytes, ref_stats = staged_reference (make ()) options in
  let ipa_stats =
    Alcotest.testable
      (fun ppf (s : Ipa.stats) ->
        Format.fprintf ppf "%d params, %d loads, dead [%s]" s.Ipa.const_params
          s.Ipa.const_global_loads (String.concat " " s.Ipa.dead_functions))
      ( = )
  in
  List.iter
    (fun (label, level) ->
      let modules = make () in
      let cg = Callgraph.build modules in
      let loader = loader_of_modules ~machine_memory:1_000 ~forced_level:level modules in
      Cmo_obs.Obs.start ();
      let report =
        Fun.protect ~finally:Cmo_obs.Obs.stop (fun () -> Hlo.run loader cg options)
      in
      let reused = reused_encodings () in
      let bytes = List.map Ilcodec.encode_module (Loader.extract_modules loader) in
      Loader.close loader;
      let what = Printf.sprintf "%s at %s" name label in
      Alcotest.(check (list string)) (what ^ ": module bytes") ref_bytes bytes;
      Alcotest.(check (option ipa_stats)) (what ^ ": ipa stats") ref_stats
        report.Hlo.ipa_stats;
      if level = Loader.Offloading then
        Alcotest.(check bool) (what ^ ": encodings reused") true (reused > 0.0))
    [ ("offloading", Loader.Offloading); ("off", Loader.Off) ]

let test_hlo_staging_two_module () =
  check_staging_equivalent "two-module" profiled_two_module
    (Hlo.o4_options ~profile:true)

let test_hlo_staging_selective () =
  let sel = Selectivity.select ~percent:50.0 (selectivity_program ()) in
  check_staging_equivalent "selectivity" selectivity_program
    { (Hlo.o4_options ~profile:true) with
      Hlo.hot_filter = Some (Selectivity.is_hot_function sel) }

let test_hlo_staging_clone_ipa () =
  let modules = clone_ipa_program () in
  let cg = Callgraph.build modules in
  let loader = loader_of_modules modules in
  let report = Hlo.run loader cg (Hlo.o4_options ~profile:true) in
  Loader.close loader;
  let ipa = Option.get report.Hlo.ipa_stats in
  Alcotest.(check bool) "a clone was made" true (report.Hlo.clones > 0);
  Alcotest.(check bool) "parameters pinned" true (ipa.Ipa.const_params > 0);
  Alcotest.(check bool) "loads folded" true (ipa.Ipa.const_global_loads > 0);
  check_staging_equivalent "clone+ipa" clone_ipa_program (Hlo.o4_options ~profile:true);
  (* Only [main] is hot: the pinned routines get their transforms
     without the phase pipeline. *)
  check_staging_equivalent "clone+ipa, main hot" clone_ipa_program
    { (Hlo.o4_options ~profile:true) with Hlo.hot_filter = Some (( = ) "main") }

let test_hlo_staging_mcad1 () =
  let modules = small_mcad1 () in
  let cg = Callgraph.build modules in
  let loader = loader_of_modules modules in
  let report = Hlo.run loader cg (Hlo.o4_options ~profile:true) in
  Loader.close loader;
  (* The program must exercise what the staging moved. *)
  let ipa = Option.get report.Hlo.ipa_stats in
  Alcotest.(check bool) "ipa folds, pins or removes something" true
    (ipa.Ipa.const_params + ipa.Ipa.const_global_loads
     + List.length ipa.Ipa.dead_functions
     > 0);
  check_staging_equivalent "mcad1" small_mcad1 (Hlo.o4_options ~profile:true);
  check_staging_equivalent "mcad1 no profile" small_mcad1 (Hlo.o4_options ~profile:false)

let test_hlo_staging_operation_limit () =
  let options = Hlo.o4_options ~profile:true in
  let limited =
    { options with
      Hlo.inline =
        Option.map
          (fun c -> { c with Inline.operation_limit = Some 3 })
          options.Hlo.inline }
  in
  check_staging_equivalent "mcad1 limited" small_mcad1 limited

let test_hlo_stage_traffic () =
  let acquires loader = (Loader.stats loader).Loader.acquires in
  (* No site of this program is hot enough to clone. *)
  let modules = profiled_two_module () in
  let cg = Callgraph.build modules in
  let loader = loader_of_modules modules in
  Alcotest.(check int) "no clones" 0 (Clone.run loader cg Clone.default_config);
  Alcotest.(check int) "clone stage acquired nothing" 0 (acquires loader);
  Loader.close loader;
  (* Inline alone, then the whole driver: IPA adds no sweep, so the
     driver's traffic is the inliner's plus one phase visit per
     routine. *)
  let options = Hlo.o4_options ~profile:true in
  let modules = profiled_two_module () in
  let cg = Callgraph.build modules in
  let loader = loader_of_modules modules in
  ignore (Inline.run loader cg (Option.get options.Hlo.inline));
  let inline_acquires = acquires loader in
  Loader.close loader;
  let modules = profiled_two_module () in
  let cg = Callgraph.build modules in
  let loader = loader_of_modules modules in
  let report = Hlo.run loader cg options in
  Alcotest.(check int) "inline + phase visits only"
    (inline_acquires + report.Hlo.funcs_optimized)
    (acquires loader);
  Loader.close loader

let suite =
  [
    ("cfg fold constant branch", `Quick, test_cfg_fold_constant_branch);
    ("cfg merge straight-line", `Quick, test_cfg_merge_straightline);
    ("cfg thread jumps", `Quick, test_cfg_thread_jumps);
    ("cfg simplify survives self-loop", `Quick, test_cfg_simplify_loop_safe);
    ("dominators diamond", `Quick, test_dominators_diamond);
    ("loopinfo while", `Quick, test_loopinfo_while);
    ("loopinfo nested", `Quick, test_loopinfo_nested);
    ("loopinfo none", `Quick, test_loopinfo_no_loops);
    ("liveness through branch", `Quick, test_liveness_param_live_through_branch);
    ("liveness dead def", `Quick, test_liveness_dead_def);
    ("constprop folds chain", `Quick, test_constprop_folds_chain);
    ("constprop through join", `Quick, test_constprop_through_join);
    ("constprop divergent join", `Quick, test_constprop_divergent_join_not_folded);
    ("constprop folds branch", `Quick, test_constprop_folds_branch_condition);
    ("constprop sparse conditional", `Quick, test_constprop_sparse_conditional);
    ("constprop call unknown", `Quick, test_constprop_call_result_unknown);
    ("copyprop rewrites", `Quick, test_copyprop_rewrites);
    ("copyprop redefinition", `Quick, test_copyprop_stops_at_redefinition);
    ("valnum cse", `Quick, test_valnum_cse);
    ("valnum commutative", `Quick, test_valnum_commutative);
    ("valnum load cse until store", `Quick, test_valnum_load_cse_until_store);
    ("valnum call blocks load cse", `Quick, test_valnum_call_blocks_load_cse);
    ("dce removes dead pure", `Quick, test_dce_removes_dead_pure);
    ("dce keeps effects", `Quick, test_dce_keeps_stores_and_calls);
    ("dce drops unused call result", `Quick, test_dce_drops_unused_call_result);
    ("dce cross-block liveness", `Quick, test_dce_respects_cross_block_liveness);
    ("licm hoists invariant", `Quick, test_licm_hoists_invariant);
    ("licm zero-iteration safe", `Quick, test_licm_zero_iteration_safe);
    ("licm leaves variant", `Quick, test_licm_does_not_hoist_variant);
    ("licm hoists clean loads", `Quick, test_licm_hoists_load_when_no_clobber);
    ("licm respects clobbers", `Quick, test_licm_no_load_hoist_with_store);
    ("unroll constant trip", `Quick, test_unroll_constant_trip);
    ("unroll zero trip", `Quick, test_unroll_zero_trip);
    ("unroll side effects", `Quick, test_unroll_side_effect_counts);
    ("unroll variable bound", `Quick, test_unroll_skips_variable_bound);
    ("unroll budget", `Quick, test_unroll_respects_budget);
    ("unroll + constprop folds", `Quick, test_unroll_then_constprop_folds);
    ("valnum superlocal", `Quick, test_valnum_superlocal_across_branch);
    ("valnum redundant branch elim", `Quick, test_valnum_redundant_branch_elimination);
    ("valnum branch fact killed", `Quick, test_valnum_branch_facts_killed_by_redefinition);
    ("valnum join fresh", `Quick, test_valnum_join_point_fresh);
    ("valnum disambiguates globals", `Quick, test_valnum_disambiguates_globals);
    ("valnum same-global kill", `Quick, test_valnum_same_global_still_killed);
    ("inline basic", `Quick, test_inline_call_at_basic);
    ("inline wrong site", `Quick, test_inline_call_at_wrong_site);
    ("inline void call", `Quick, test_inline_void_call);
    ("inline one level of recursion", `Quick, test_inline_recursive_callee_body);
    ("inline driver cross-module", `Quick, test_inline_run_cross_module);
    ("inline operation limit", `Quick, test_inline_respects_operation_limit);
    ("inline profile scaling", `Quick, test_inline_profile_scaling);
    ("inline skips recursion", `Quick, test_inline_skips_recursive_in_driver);
    ("inline rejection diagnostics", `Quick, test_inline_rejection_diagnostics);
    ("ipa const params", `Quick, test_ipa_const_params);
    ("ipa varying params", `Quick, test_ipa_varying_param_not_pinned);
    ("ipa external callers", `Quick, test_ipa_externally_called_not_pinned);
    ("ipa const globals", `Quick, test_ipa_const_global_folded);
    ("ipa stored globals", `Quick, test_ipa_stored_global_not_folded);
    ("ipa externally stored globals", `Quick, test_ipa_externally_stored_not_folded);
    ("ipa dead functions", `Quick, test_ipa_dead_function_removed);
    ("ipa closed world", `Quick, test_ipa_closed_world_removes_exported);
    ("ipa external functions kept", `Quick, test_ipa_externally_called_kept);
    ("clone hot const site", `Quick, test_clone_specializes_hot_const_site);
    ("clone shared", `Quick, test_clone_shared_between_identical_sites);
    ("clone cold ignored", `Quick, test_clone_cold_site_ignored);
    ("selectivity picks hot", `Quick, test_selectivity_picks_hot_sites);
    ("selectivity zero percent", `Quick, test_selectivity_zero_percent);
    ("selectivity excludes cold", `Quick, test_selectivity_hundred_percent_excludes_cold);
    ("selectivity deterministic", `Quick, test_selectivity_deterministic);
    ("phase fixpoint", `Quick, test_phase_fixpoint_and_budget);
    ("phase zero budget", `Quick, test_phase_budget_limits);
    ("phase derived memory", `Quick, test_phase_charges_derived_memory);
    ("hlo o4 end to end", `Quick, test_hlo_o4_end_to_end);
    ("hlo o4 beats o2", `Quick, test_hlo_o4_faster_than_o2);
    ("hlo fine selectivity", `Quick, test_hlo_fine_selectivity_skips_cold);
    ("hlo staging two-module", `Quick, test_hlo_staging_two_module);
    ("hlo staging selectivity", `Quick, test_hlo_staging_selective);
    ("hlo staging clone+ipa", `Quick, test_hlo_staging_clone_ipa);
    ("hlo staging mcad1", `Quick, test_hlo_staging_mcad1);
    ("hlo staging operation limit", `Quick, test_hlo_staging_operation_limit);
    ("hlo stage traffic", `Quick, test_hlo_stage_traffic);
  ]
