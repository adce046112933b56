(* Tests for the IL core: instruction helpers, function/CFG utilities,
   symbol table, call graph, verifier, codec roundtrips, size model,
   and the reference interpreter. *)

module Instr = Cmo_il.Instr
module Func = Cmo_il.Func
module Ilmod = Cmo_il.Ilmod
module Symtab = Cmo_il.Symtab
module Callgraph = Cmo_il.Callgraph
module Verify = Cmo_il.Verify
module Ilcodec = Cmo_il.Ilcodec
module Size = Cmo_il.Size
module Interp = Cmo_il.Interp
module Intern = Cmo_support.Intern

(* ---------- Instr ---------- *)

let test_eval_binop_basic () =
  Alcotest.(check int64) "add" 7L (Instr.eval_binop Instr.Add 3L 4L);
  Alcotest.(check int64) "sub" (-1L) (Instr.eval_binop Instr.Sub 3L 4L);
  Alcotest.(check int64) "mul" 12L (Instr.eval_binop Instr.Mul 3L 4L);
  Alcotest.(check int64) "div" 3L (Instr.eval_binop Instr.Div 7L 2L);
  Alcotest.(check int64) "rem" 1L (Instr.eval_binop Instr.Rem 7L 2L)

let test_eval_binop_div_zero () =
  Alcotest.(check int64) "div by zero is 0" 0L (Instr.eval_binop Instr.Div 7L 0L);
  Alcotest.(check int64) "rem by zero is 0" 0L (Instr.eval_binop Instr.Rem 7L 0L)

let test_eval_binop_compare () =
  Alcotest.(check int64) "lt true" 1L (Instr.eval_binop Instr.Lt 1L 2L);
  Alcotest.(check int64) "lt false" 0L (Instr.eval_binop Instr.Lt 2L 1L);
  Alcotest.(check int64) "eq" 1L (Instr.eval_binop Instr.Eq 5L 5L);
  Alcotest.(check int64) "ge" 1L (Instr.eval_binop Instr.Ge 5L 5L);
  Alcotest.(check int64) "ne" 0L (Instr.eval_binop Instr.Ne 5L 5L)

let test_eval_binop_shift_masked () =
  Alcotest.(check int64) "shl 65 == shl 1" 2L (Instr.eval_binop Instr.Shl 1L 65L);
  Alcotest.(check int64) "shr sign extends" (-1L)
    (Instr.eval_binop Instr.Shr (-2L) 1L)

let test_eval_unop () =
  Alcotest.(check int64) "neg" (-3L) (Instr.eval_unop Instr.Neg 3L);
  Alcotest.(check int64) "not 0" 1L (Instr.eval_unop Instr.Not 0L);
  Alcotest.(check int64) "not nonzero" 0L (Instr.eval_unop Instr.Not 42L)

let test_instr_def_uses () =
  let i = Instr.Binop (Instr.Add, 5, Instr.Reg 1, Instr.Reg 2) in
  Alcotest.(check (option int)) "def" (Some 5) (Instr.def i);
  Alcotest.(check (list int)) "uses" [ 1; 2 ] (Instr.uses i);
  let st = Instr.Store ({ Instr.base = "g"; index = Instr.Reg 3 }, Instr.Reg 4) in
  Alcotest.(check (option int)) "store defs nothing" None (Instr.def st);
  Alcotest.(check (list int)) "store uses" [ 3; 4 ] (Instr.uses st)

let test_instr_map_operands () =
  let i = Instr.Binop (Instr.Add, 5, Instr.Reg 1, Instr.Imm 3L) in
  let mapped =
    Instr.map_operands
      (function Instr.Reg 1 -> Instr.Reg 9 | o -> o)
      i
  in
  Alcotest.(check (list int)) "remapped" [ 9 ] (Instr.uses mapped);
  Alcotest.(check (option int)) "def untouched" (Some 5) (Instr.def mapped)

let test_terminator_targets () =
  Alcotest.(check (list int)) "ret" [] (Instr.targets (Instr.Ret None));
  Alcotest.(check (list int)) "jmp" [ 3 ] (Instr.targets (Instr.Jmp 3));
  Alcotest.(check (list int)) "br" [ 1; 2 ]
    (Instr.targets (Instr.Br { cond = Instr.Reg 0; ifso = 1; ifnot = 2 }))

let test_retarget () =
  let t = Instr.Br { cond = Instr.Reg 0; ifso = 1; ifnot = 2 } in
  let t' = Instr.retarget (fun l -> l + 10) t in
  Alcotest.(check (list int)) "retargeted" [ 11; 12 ] (Instr.targets t')

let test_is_pure () =
  Alcotest.(check bool) "binop pure" true
    (Instr.is_pure (Instr.Binop (Instr.Add, 0, Instr.Imm 1L, Instr.Imm 2L)));
  Alcotest.(check bool) "load impure" false
    (Instr.is_pure (Instr.Load (0, { Instr.base = "g"; index = Instr.Imm 0L })));
  Alcotest.(check bool) "call impure" false
    (Instr.is_pure
       (Instr.Call
          { Instr.dst = None; callee = "f"; args = []; site = 0; call_count = 0.0 }))

(* ---------- Func ---------- *)

let test_func_add_block () =
  let f = Func.create ~name:"f" ~arity:1 ~linkage:Func.Exported in
  let b0 = Func.add_block f [] (Instr.Ret None) in
  let b1 = Func.add_block f [] (Instr.Jmp b0.Func.label) in
  Alcotest.(check int) "labels dense" 0 b0.Func.label;
  Alcotest.(check int) "labels dense" 1 b1.Func.label;
  Alcotest.(check int) "two blocks" 2 (List.length f.Func.blocks)

let test_func_new_reg_after_params () =
  let f = Func.create ~name:"f" ~arity:3 ~linkage:Func.Exported in
  Alcotest.(check int) "first temp after params" 3 (Func.new_reg f)

let test_func_predecessors () =
  let f = Func.create ~name:"f" ~arity:0 ~linkage:Func.Exported in
  let b0 = Func.add_block f [] (Instr.Ret None) in
  let b1 = Func.add_block f [] (Instr.Jmp b0.Func.label) in
  let b2 =
    Func.add_block f []
      (Instr.Br { cond = Instr.Imm 1L; ifso = b0.Func.label; ifnot = b1.Func.label })
  in
  f.Func.entry <- b2.Func.label;
  let ix = Func.index f in
  let preds = Func.predecessors f ix in
  Alcotest.(check (list int)) "b0 preds" [ b1.Func.label; b2.Func.label ]
    (List.sort compare preds.(b0.Func.label));
  Alcotest.(check (list int)) "b2 preds" [] preds.(b2.Func.label);
  Alcotest.(check (list int)) "edge counts" [ 2; 1; 0 ]
    (Array.to_list ix.Func.npreds);
  Alcotest.(check int) "sole pred of b1" b2.Func.label (Func.sole_pred ix b1.Func.label);
  Alcotest.(check int) "b0 has two preds" (-1) (Func.sole_pred ix b0.Func.label)

let test_func_reachable () =
  let f = Func.create ~name:"f" ~arity:0 ~linkage:Func.Exported in
  let b0 = Func.add_block f [] (Instr.Ret None) in
  let _unreachable = Func.add_block f [] (Instr.Ret None) in
  f.Func.entry <- b0.Func.label;
  let r = Func.reachable f (Func.index f) in
  Alcotest.(check (list bool)) "only entry reachable" [ true; false ] (Array.to_list r)

let test_func_copy_independent () =
  let f = Helpers.make_linear_func "f" in
  let g = Func.copy f in
  let b = List.hd g.Func.blocks in
  b.Func.instrs <- [];
  Alcotest.(check int) "original unchanged" 2
    (List.length (List.hd f.Func.blocks).Func.instrs)

let test_func_site_calls () =
  let f = Func.create ~name:"f" ~arity:0 ~linkage:Func.Exported in
  let s0 = Func.new_site f in
  let s1 = Func.new_site f in
  let call s =
    Instr.Call { Instr.dst = None; callee = "g"; args = []; site = s; call_count = 0.0 }
  in
  let b = Func.add_block f [ call s0; call s1 ] (Instr.Ret None) in
  f.Func.entry <- b.Func.label;
  Alcotest.(check (list int)) "sites in order" [ 0; 1 ]
    (List.map fst (Func.site_calls f))

(* ---------- Symtab ---------- *)

let two_module_program () =
  let m1 = Ilmod.create "m1" in
  ignore (Ilmod.add_global m1 ~name:"shared" ~size:4 ~exported:true ());
  let main = Func.create ~name:"main" ~arity:0 ~linkage:Func.Exported in
  let r = Func.new_reg main in
  let s = Func.new_site main in
  let b =
    Func.add_block main
      [
        Instr.Call
          { Instr.dst = Some r; callee = "helper"; args = [ Instr.Imm 3L ];
            site = s; call_count = 0.0 };
        Instr.Store ({ Instr.base = "shared"; index = Instr.Imm 0L }, Instr.Reg r);
      ]
      (Instr.Ret (Some (Instr.Reg r)))
  in
  main.Func.entry <- b.Func.label;
  Ilmod.add_func m1 main;
  let m2 = Ilmod.create "m2" in
  let helper = Func.create ~name:"helper" ~arity:1 ~linkage:Func.Exported in
  let t = Func.new_reg helper in
  let hb =
    Func.add_block helper
      [ Instr.Binop (Instr.Mul, t, Instr.Reg 0, Instr.Imm 2L) ]
      (Instr.Ret (Some (Instr.Reg t)))
  in
  helper.Func.entry <- hb.Func.label;
  Ilmod.add_func m2 helper;
  [ m1; m2 ]

let test_symtab_build_ok () =
  match Symtab.build (two_module_program ()) with
  | Ok st ->
    Alcotest.(check bool) "main found" true
      (Symtab.find_exported st "main" <> None);
    Alcotest.(check bool) "helper found" true
      (Symtab.find_exported st "helper" <> None);
    Alcotest.(check (list string)) "order" [ "shared"; "main"; "helper" ]
      (Symtab.defined_names st)
  | Error _ -> Alcotest.fail "expected Ok"

let test_symtab_duplicate () =
  let m1 = Ilmod.create "m1" in
  Ilmod.add_func m1 (Helpers.make_linear_func "f");
  let m2 = Ilmod.create "m2" in
  Ilmod.add_func m2 (Helpers.make_linear_func "f");
  match Symtab.build [ m1; m2 ] with
  | Error [ Symtab.Duplicate ("f", "m1", "m2") ] -> ()
  | Error _ -> Alcotest.fail "wrong error"
  | Ok _ -> Alcotest.fail "expected duplicate error"

let test_symtab_undefined () =
  let m = Ilmod.create "m" in
  let f = Func.create ~name:"f" ~arity:0 ~linkage:Func.Exported in
  let s = Func.new_site f in
  let b =
    Func.add_block f
      [ Instr.Call { Instr.dst = None; callee = "missing"; args = []; site = s; call_count = 0.0 } ]
      (Instr.Ret None)
  in
  f.Func.entry <- b.Func.label;
  Ilmod.add_func m f;
  match Symtab.build [ m ] with
  | Error [ Symtab.Undefined ("m", "missing") ] -> ()
  | Error _ -> Alcotest.fail "wrong error"
  | Ok _ -> Alcotest.fail "expected undefined error"

let test_symtab_local_not_exported () =
  let m = Ilmod.create "m" in
  Ilmod.add_func m (Helpers.make_linear_func ~linkage:Func.Local "m::f");
  match Symtab.build [ m ] with
  | Ok st ->
    Alcotest.(check bool) "find sees it" true
      (Symtab.find st ~current_module:"m" "m::f" <> None);
    Alcotest.(check bool) "find_exported hides it" true
      (Symtab.find_exported st "m::f" = None)
  | Error _ -> Alcotest.fail "expected Ok"

(* ---------- Callgraph ---------- *)

let call_chain_modules () =
  (* a -> b -> c, plus recursive d -> d *)
  let m = Ilmod.create "m" in
  let mk name callees =
    let f = Func.create ~name ~arity:0 ~linkage:Func.Exported in
    let instrs =
      List.map
        (fun callee ->
          Instr.Call
            { Instr.dst = None; callee; args = []; site = Func.new_site f; call_count = 0.0 })
        callees
    in
    let b = Func.add_block f instrs (Instr.Ret None) in
    f.Func.entry <- b.Func.label;
    Ilmod.add_func m f
  in
  mk "a" [ "b" ];
  mk "b" [ "c" ];
  mk "c" [];
  mk "d" [ "d" ];
  m

let test_callgraph_edges () =
  let cg = Callgraph.build [ call_chain_modules () ] in
  Alcotest.(check int) "nodes" 4 (List.length (Callgraph.nodes cg));
  Alcotest.(check int) "edges" 3 (List.length (Callgraph.edges cg));
  Alcotest.(check (list string)) "a callees" [ "b" ]
    (List.map (fun e -> e.Callgraph.callee) (Callgraph.callees cg "a"));
  Alcotest.(check (list string)) "c callers" [ "b" ]
    (List.map (fun e -> e.Callgraph.caller) (Callgraph.callers cg "c"))

let test_callgraph_bottom_up () =
  let cg = Callgraph.build [ call_chain_modules () ] in
  let order = Callgraph.bottom_up cg in
  let pos name =
    let rec go i = function
      | [] -> Alcotest.fail (name ^ " missing from order")
      | x :: _ when x = name -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 order
  in
  Alcotest.(check bool) "c before b" true (pos "c" < pos "b");
  Alcotest.(check bool) "b before a" true (pos "b" < pos "a")

let test_callgraph_cycle () =
  let cg = Callgraph.build [ call_chain_modules () ] in
  Alcotest.(check bool) "d is recursive" true (Callgraph.in_cycle cg "d");
  Alcotest.(check bool) "a is not" false (Callgraph.in_cycle cg "a")

let test_callgraph_mutual_cycle () =
  let m = Ilmod.create "m" in
  let mk name callee =
    let f = Func.create ~name ~arity:0 ~linkage:Func.Exported in
    let b =
      Func.add_block f
        [ Instr.Call { Instr.dst = None; callee; args = []; site = Func.new_site f; call_count = 0.0 } ]
        (Instr.Ret None)
    in
    f.Func.entry <- b.Func.label;
    Ilmod.add_func m f
  in
  mk "even" "odd";
  mk "odd" "even";
  let cg = Callgraph.build [ m ] in
  Alcotest.(check bool) "even in cycle" true (Callgraph.in_cycle cg "even");
  Alcotest.(check bool) "odd in cycle" true (Callgraph.in_cycle cg "odd")

let test_callgraph_intrinsics_skipped () =
  let m = Ilmod.create "m" in
  let f = Func.create ~name:"f" ~arity:0 ~linkage:Func.Exported in
  let b =
    Func.add_block f
      [
        Instr.Call
          { Instr.dst = None; callee = "print"; args = [ Instr.Imm 1L ];
            site = Func.new_site f; call_count = 0.0 };
      ]
      (Instr.Ret None)
  in
  f.Func.entry <- b.Func.label;
  Ilmod.add_func m f;
  let cg = Callgraph.build [ m ] in
  Alcotest.(check int) "no intrinsic edges" 0 (List.length (Callgraph.edges cg))

(* ---------- Verify ---------- *)

let test_verify_clean () =
  let issues = Verify.check_program (two_module_program ()) in
  Alcotest.(check int) "no issues" 0 (List.length issues)

let test_verify_missing_target () =
  let f = Func.create ~name:"f" ~arity:0 ~linkage:Func.Exported in
  let b = Func.add_block f [] (Instr.Jmp 99) in
  f.Func.entry <- b.Func.label;
  let issues = Verify.check_func ~module_name:"m" f in
  Alcotest.(check bool) "missing label reported" true
    (List.exists (fun i -> i.Verify.func = "f") issues)

let test_verify_bad_register () =
  let f = Func.create ~name:"f" ~arity:0 ~linkage:Func.Exported in
  let b =
    Func.add_block f [ Instr.Move (57, Instr.Imm 0L) ] (Instr.Ret None)
  in
  f.Func.entry <- b.Func.label;
  Alcotest.(check bool) "bad register reported" true
    (Verify.check_func ~module_name:"m" f <> [])

let test_verify_duplicate_site () =
  let f = Func.create ~name:"f" ~arity:0 ~linkage:Func.Exported in
  let s = Func.new_site f in
  let call =
    Instr.Call { Instr.dst = None; callee = "print"; args = [ Instr.Imm 1L ]; site = s; call_count = 0.0 }
  in
  let b = Func.add_block f [ call; call ] (Instr.Ret None) in
  f.Func.entry <- b.Func.label;
  Alcotest.(check bool) "duplicate site reported" true
    (List.exists
       (fun i -> String.length i.Verify.message > 0)
       (Verify.check_func ~module_name:"m" f))

let test_verify_intrinsic_arity () =
  let f = Func.create ~name:"f" ~arity:0 ~linkage:Func.Exported in
  let b =
    Func.add_block f
      [
        Instr.Call
          { Instr.dst = None; callee = "print"; args = []; site = Func.new_site f; call_count = 0.0 };
      ]
      (Instr.Ret None)
  in
  f.Func.entry <- b.Func.label;
  Alcotest.(check bool) "arity error reported" true
    (Verify.check_func ~module_name:"m" f <> [])

let test_verify_empty_function () =
  let f = Func.create ~name:"f" ~arity:0 ~linkage:Func.Exported in
  Alcotest.(check bool) "empty function reported" true
    (Verify.check_func ~module_name:"m" f <> [])

(* ---------- Ilcodec ---------- *)

let test_codec_func_roundtrip () =
  let f = Helpers.make_linear_func "f" in
  let g = Ilcodec.roundtrip_func f in
  Alcotest.(check string) "name" f.Func.name g.Func.name;
  Alcotest.(check int) "arity" f.Func.arity g.Func.arity;
  Alcotest.(check int) "blocks" (List.length f.Func.blocks)
    (List.length g.Func.blocks);
  Alcotest.(check int) "instrs" (Func.instr_count f) (Func.instr_count g);
  Alcotest.(check int) "src_lines" f.Func.src_lines g.Func.src_lines

let test_codec_module_roundtrip_behaviour () =
  let src =
    {|
    global acc;
    static global table[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    static func sum(n) {
      var total = 0;
      var i = 0;
      while (i < n) {
        total = total + table[i];
        i = i + 1;
      }
      return total;
    }
    func main() {
      acc = sum(8);
      print(acc);
      return acc;
    }
    |}
  in
  let m = Helpers.compile src in
  let bytes = Cmo_il.Ilcodec.encode_module m in
  let m' = Cmo_il.Ilcodec.decode_module bytes in
  Helpers.check_same_behaviour "decoded module behaves identically" [ m ] [ m' ]

let test_codec_module_roundtrip_structure () =
  let modules = two_module_program () in
  List.iter
    (fun m ->
      let m' = Ilcodec.decode_module (Ilcodec.encode_module m) in
      Alcotest.(check string) "module name" m.Ilmod.mname m'.Ilmod.mname;
      Alcotest.(check int) "globals" (List.length m.Ilmod.globals)
        (List.length m'.Ilmod.globals);
      Alcotest.(check int) "funcs" (List.length m.Ilmod.funcs)
        (List.length m'.Ilmod.funcs);
      Alcotest.(check int) "instr count" (Ilmod.instr_count m)
        (Ilmod.instr_count m'))
    modules

let test_codec_compacted_smaller () =
  let src =
    {|
    func work(a, b, c) {
      var x = a * b + c;
      var y = x * x - a;
      if (y > 100) { y = y - 100; } else { y = y + 7; }
      while (x > 0) { x = x - 1; y = y + x; }
      return y;
    }
    func main() { return work(3, 4, 5); }
    |}
  in
  let m = Helpers.compile src in
  let compact = String.length (Cmo_il.Ilcodec.encode_module m) in
  let expanded = Size.module_expanded_bytes m in
  Alcotest.(check bool)
    (Printf.sprintf "compact %d << expanded %d" compact expanded)
    true
    (compact * 4 < expanded)

let test_codec_corrupt_rejected () =
  let m = List.hd (two_module_program ()) in
  let bytes = Cmo_il.Ilcodec.encode_module m in
  let corrupted = "\xFF" ^ String.sub bytes 1 (String.length bytes - 1) in
  Alcotest.(check bool) "version mismatch raises" true
    (try
       ignore (Ilcodec.decode_module corrupted);
       false
     with Cmo_support.Codec.Reader.Corrupt _ -> true)

let test_codec_preserves_freq_and_counts () =
  let f = Helpers.make_linear_func "f" in
  (List.hd f.Func.blocks).Func.freq <- 123.0;
  let g = Ilcodec.roundtrip_func f in
  Alcotest.(check (float 0.0)) "freq preserved" 123.0
    (List.hd g.Func.blocks).Func.freq

(* ---------- Size model ---------- *)

let test_size_monotone_in_instrs () =
  let small = Helpers.make_linear_func "small" in
  let big = Func.create ~name:"big" ~arity:2 ~linkage:Func.Exported in
  let instrs =
    List.init 20 (fun i ->
        Instr.Binop (Instr.Add, 2 + i, Instr.Reg 0, Instr.Imm 1L))
  in
  big.Func.next_reg <- 30;
  let b = Func.add_block big instrs (Instr.Ret None) in
  big.Func.entry <- b.Func.label;
  Alcotest.(check bool) "more instrs, more bytes" true
    (Size.func_expanded_bytes big > Size.func_expanded_bytes small)

let test_size_derived_fraction () =
  let f = Helpers.make_linear_func "f" in
  let full = Size.func_expanded_bytes f in
  let core = Size.func_expanded_core_bytes f in
  (* Paper: derived-attribute slots are about 2/3 of an object. *)
  Alcotest.(check bool) "derived slots are a large fraction" true
    (float_of_int core < 0.7 *. float_of_int full)

(* ---------- Interp ---------- *)

let test_interp_arith () =
  let o = Helpers.run_main "func main() { return 2 + 3 * 4; }" in
  Alcotest.(check int64) "2+3*4" 14L o.Interp.ret

let test_interp_globals () =
  let o =
    Helpers.run_main
      {|
      global g;
      global arr[4];
      func main() {
        g = 5;
        arr[2] = g * 2;
        return arr[2] + g;
      }
      |}
  in
  Alcotest.(check int64) "globals" 15L o.Interp.ret

let test_interp_print_order () =
  let o =
    Helpers.run_main
      "func main() { print(1); print(2); print(3); return 0; }"
  in
  Alcotest.(check (list int64)) "output order" [ 1L; 2L; 3L ] o.Interp.output

let test_interp_arg_input () =
  let o =
    Helpers.run ~input:[| 10L; 20L; 30L |]
      [ Helpers.compile "func main() { return arg(1) + arg(4); }" ]
  in
  (* arg wraps modulo input length: arg(4) = input[1]. *)
  Alcotest.(check int64) "input values" 40L o.Interp.ret

let test_interp_arg_empty_input () =
  let o = Helpers.run_main "func main() { return arg(0); }" in
  Alcotest.(check int64) "empty input yields 0" 0L o.Interp.ret

let test_interp_cross_module_call () =
  let modules =
    Helpers.compile_all
      [
        ("main_mod", "func main() { return helper(21); }");
        ("lib_mod", "func helper(x) { return x * 2; }");
      ]
  in
  let o = Helpers.run modules in
  Alcotest.(check int64) "cross-module call" 42L o.Interp.ret

let test_interp_recursion () =
  let o =
    Helpers.run_main
      {|
      func fact(n) {
        if (n <= 1) { return 1; }
        return n * fact(n - 1);
      }
      func main() { return fact(10); }
      |}
  in
  Alcotest.(check int64) "10!" 3628800L o.Interp.ret

let test_interp_fuel_exhaustion () =
  Alcotest.(check bool) "infinite loop runs out of fuel" true
    (try
       ignore
         (Interp.run ~fuel:1000
            [ Helpers.compile "func main() { while (1) { } return 0; }" ]);
       false
     with Interp.Runtime_error _ -> true)

let test_interp_depth_limit () =
  Alcotest.(check bool) "unbounded recursion trapped" true
    (try
       ignore
         (Interp.run ~max_depth:100
            [ Helpers.compile "func f(n) { return f(n + 1); } func main() { return f(0); }" ]);
       false
     with Interp.Runtime_error _ -> true)

let test_interp_oob_trapped () =
  Alcotest.(check bool) "out of bounds trapped" true
    (try
       ignore
         (Helpers.run_main "global a[4]; func main() { return a[9]; }");
       false
     with Interp.Runtime_error _ -> true)

let test_interp_probe_counters () =
  let f = Func.create ~name:"main" ~arity:0 ~linkage:Func.Exported in
  let b =
    Func.add_block f [ Instr.Probe 7; Instr.Probe 7; Instr.Probe 3 ]
      (Instr.Ret (Some (Instr.Imm 0L)))
  in
  f.Func.entry <- b.Func.label;
  let m = Ilmod.create "m" in
  Ilmod.add_func m f;
  let o = Interp.run [ m ] in
  Alcotest.(check (list (pair int int64))) "probe counts"
    [ (3, 1L); (7, 2L) ]
    o.Interp.probes

let test_interp_steps_counted () =
  let o = Helpers.run_main "func main() { return 1 + 2; }" in
  Alcotest.(check bool) "steps positive" true (o.Interp.steps > 0)

let suite =
  [
    ("eval_binop basics", `Quick, test_eval_binop_basic);
    ("eval_binop div by zero", `Quick, test_eval_binop_div_zero);
    ("eval_binop comparisons", `Quick, test_eval_binop_compare);
    ("eval_binop shifts masked", `Quick, test_eval_binop_shift_masked);
    ("eval_unop", `Quick, test_eval_unop);
    ("instr def/uses", `Quick, test_instr_def_uses);
    ("instr map_operands", `Quick, test_instr_map_operands);
    ("terminator targets", `Quick, test_terminator_targets);
    ("terminator retarget", `Quick, test_retarget);
    ("is_pure", `Quick, test_is_pure);
    ("func add_block labels", `Quick, test_func_add_block);
    ("func new_reg after params", `Quick, test_func_new_reg_after_params);
    ("func predecessors", `Quick, test_func_predecessors);
    ("func reachable", `Quick, test_func_reachable);
    ("func copy independent", `Quick, test_func_copy_independent);
    ("func site_calls order", `Quick, test_func_site_calls);
    ("symtab build ok", `Quick, test_symtab_build_ok);
    ("symtab duplicate", `Quick, test_symtab_duplicate);
    ("symtab undefined", `Quick, test_symtab_undefined);
    ("symtab local visibility", `Quick, test_symtab_local_not_exported);
    ("callgraph edges", `Quick, test_callgraph_edges);
    ("callgraph bottom-up order", `Quick, test_callgraph_bottom_up);
    ("callgraph self cycle", `Quick, test_callgraph_cycle);
    ("callgraph mutual cycle", `Quick, test_callgraph_mutual_cycle);
    ("callgraph skips intrinsics", `Quick, test_callgraph_intrinsics_skipped);
    ("verify clean program", `Quick, test_verify_clean);
    ("verify missing branch target", `Quick, test_verify_missing_target);
    ("verify bad register", `Quick, test_verify_bad_register);
    ("verify duplicate call site", `Quick, test_verify_duplicate_site);
    ("verify intrinsic arity", `Quick, test_verify_intrinsic_arity);
    ("verify empty function", `Quick, test_verify_empty_function);
    ("ilcodec func roundtrip", `Quick, test_codec_func_roundtrip);
    ("ilcodec module behaviour preserved", `Quick, test_codec_module_roundtrip_behaviour);
    ("ilcodec module structure preserved", `Quick, test_codec_module_roundtrip_structure);
    ("ilcodec compacted much smaller", `Quick, test_codec_compacted_smaller);
    ("ilcodec corrupt rejected", `Quick, test_codec_corrupt_rejected);
    ("ilcodec preserves profile annotations", `Quick, test_codec_preserves_freq_and_counts);
    ("size monotone", `Quick, test_size_monotone_in_instrs);
    ("size derived fraction", `Quick, test_size_derived_fraction);
    ("interp arithmetic", `Quick, test_interp_arith);
    ("interp globals", `Quick, test_interp_globals);
    ("interp print order", `Quick, test_interp_print_order);
    ("interp arg input", `Quick, test_interp_arg_input);
    ("interp arg empty input", `Quick, test_interp_arg_empty_input);
    ("interp cross-module call", `Quick, test_interp_cross_module_call);
    ("interp recursion", `Quick, test_interp_recursion);
    ("interp fuel exhaustion", `Quick, test_interp_fuel_exhaustion);
    ("interp depth limit", `Quick, test_interp_depth_limit);
    ("interp out-of-bounds", `Quick, test_interp_oob_trapped);
    ("interp probe counters", `Quick, test_interp_probe_counters);
    ("interp counts steps", `Quick, test_interp_steps_counted);
  ]
