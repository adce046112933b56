(* Tests for the MiniC frontend: lexer, parser, sema, lowering.  The
   lowering tests execute via the reference interpreter to check
   source-level semantics end to end. *)

module Lexer = Cmo_frontend.Lexer
module Parser = Cmo_frontend.Parser
module Sema = Cmo_frontend.Sema
module Ast = Cmo_frontend.Ast
module Frontend = Cmo_frontend.Frontend
module Verify = Cmo_il.Verify
module Func = Cmo_il.Func
module Interp = Cmo_il.Interp

let ret src = (Helpers.run_main src).Interp.ret

let output src = (Helpers.run_main src).Interp.output

(* ---------- Lexer ---------- *)

let kinds toks = List.init (Lexer.length toks) (Lexer.kind toks)

let test_lex_tokens () =
  let kinds = kinds (Lexer.tokenize "func f(a) { return a + 41; }") in
  Alcotest.(check int) "token count" 13 (List.length kinds);
  Alcotest.(check bool) "starts with func" true (List.hd kinds = Lexer.KW_FUNC)

let test_lex_comments_skipped () =
  let toks = Lexer.tokenize "// a comment\nfunc // another\nmain" in
  Alcotest.(check int) "three tokens with EOF" 3 (Lexer.length toks)

let test_lex_line_numbers () =
  let toks = Lexer.tokenize "func\n\nmain" in
  Alcotest.(check int) "line tracked" 3 (Lexer.pos toks 1).Ast.line

let test_lex_two_char_operators () =
  let kinds = kinds (Lexer.tokenize "== != <= >= << >> && ||") in
  Alcotest.(check bool) "all recognized" true
    (kinds
    = [
        Lexer.EQ; Lexer.NE; Lexer.LE; Lexer.GE; Lexer.SHL; Lexer.SHR;
        Lexer.AMPAMP; Lexer.PIPEPIPE; Lexer.EOF;
      ])

let test_lex_illegal_char () =
  Alcotest.(check bool) "illegal char raises" true
    (try
       ignore (Lexer.tokenize "func @");
       false
     with Lexer.Lex_error _ -> true)

(* ---------- Parser ---------- *)

let test_parse_precedence () =
  let e = Parser.parse_expr "1 + 2 * 3" in
  match e.Ast.desc with
  | Ast.Binary (Ast.Add, { Ast.desc = Ast.Int 1L; _ }, { Ast.desc = Ast.Binary (Ast.Mul, _, _); _ }) ->
    ()
  | _ -> Alcotest.fail "wrong precedence tree"

let test_parse_left_assoc () =
  let e = Parser.parse_expr "10 - 3 - 2" in
  match e.Ast.desc with
  | Ast.Binary (Ast.Sub, { Ast.desc = Ast.Binary (Ast.Sub, _, _); _ }, { Ast.desc = Ast.Int 2L; _ }) ->
    ()
  | _ -> Alcotest.fail "subtraction must associate left"

let test_parse_unary () =
  let e = Parser.parse_expr "-x + !y" in
  match e.Ast.desc with
  | Ast.Binary (Ast.Add, { Ast.desc = Ast.Unary (Ast.Neg, _); _ }, { Ast.desc = Ast.Unary (Ast.Not, _); _ }) ->
    ()
  | _ -> Alcotest.fail "unary operators misparsed"

let test_parse_error_position () =
  try
    ignore (Parser.parse ~module_name:"m" "func f( { }");
    Alcotest.fail "expected parse error"
  with Parser.Parse_error (_, pos) ->
    Alcotest.(check int) "error on line 1" 1 pos.Ast.line

let test_parse_else_if_chain () =
  let u =
    Parser.parse ~module_name:"m"
      "func f(x) { if (x > 2) { return 2; } else if (x > 1) { return 1; } else { return 0; } }"
  in
  match u.Ast.decls with
  | [ Ast.Func_decl { body = [ { Ast.sdesc = Ast.If (_, _, [ { Ast.sdesc = Ast.If _; _ } ]); _ } ]; _ } ] ->
    ()
  | _ -> Alcotest.fail "else-if chain misparsed"

let test_parse_array_global_init () =
  let u = Parser.parse ~module_name:"m" "global t[3] = {1, 2, 3};" in
  match u.Ast.decls with
  | [ Ast.Global_decl { size = 3; init = [| 1L; 2L; 3L |]; _ } ] -> ()
  | _ -> Alcotest.fail "array init misparsed"

let test_parse_negative_init () =
  let u = Parser.parse ~module_name:"m" "global x = -7;" in
  match u.Ast.decls with
  | [ Ast.Global_decl { init = [| -7L |]; _ } ] -> ()
  | _ -> Alcotest.fail "negative init misparsed"

let test_parse_oversized_init_rejected () =
  Alcotest.(check bool) "too-long initializer rejected" true
    (try
       ignore (Parser.parse ~module_name:"m" "global t[2] = {1, 2, 3};");
       false
     with Parser.Parse_error _ -> true)

(* ---------- Sema ---------- *)

let sema_errors src =
  match Sema.analyze (Parser.parse ~module_name:"m" src) with
  | Ok _ -> []
  | Error errs -> errs

let test_sema_undeclared_var () =
  Alcotest.(check bool) "undeclared reported" true
    (sema_errors "func f() { return nope; }" <> [])

let test_sema_duplicate_global () =
  Alcotest.(check bool) "duplicate reported" true
    (sema_errors "global x; global x;" <> [])

let test_sema_duplicate_local () =
  Alcotest.(check bool) "duplicate local reported" true
    (sema_errors "func f() { var a = 1; var a = 2; return a; }" <> [])

let test_sema_shadowing_in_nested_block_ok () =
  Alcotest.(check int) "shadowing in nested block allowed" 0
    (List.length
       (sema_errors "func f() { var a = 1; if (a) { var a = 2; } return a; }"))

let test_sema_arity_check () =
  Alcotest.(check bool) "bad arity reported" true
    (sema_errors "func g(a, b) { return a + b; } func f() { return g(1); }" <> [])

let test_sema_extern_call_allowed () =
  Alcotest.(check int) "extern call passes sema" 0
    (List.length (sema_errors "func f() { return other_module_fn(1, 2); }"))

let test_sema_intrinsic_arity () =
  Alcotest.(check bool) "print arity enforced" true
    (sema_errors "func f() { print(1, 2); return 0; }" <> [])

let test_sema_array_as_scalar () =
  Alcotest.(check bool) "array as scalar reported" true
    (sema_errors "global t[4]; func f() { return t; }" <> [])

let test_sema_index_local () =
  Alcotest.(check bool) "indexing local reported" true
    (sema_errors "func f() { var a = 1; return a[0]; }" <> [])

let test_sema_call_global () =
  Alcotest.(check bool) "calling a global reported" true
    (sema_errors "global g; func f() { return g(); }" <> [])

let test_sema_intrinsic_shadowing () =
  Alcotest.(check bool) "shadowing print reported" true
    (sema_errors "func print(x) { return x; }" <> [])

(* ---------- Lowering (behaviour via interpreter) ---------- *)

let test_lower_if_else () =
  Alcotest.(check int64) "then branch" 1L
    (ret "func main() { if (2 > 1) { return 1; } else { return 2; } }");
  Alcotest.(check int64) "else branch" 2L
    (ret "func main() { if (1 > 2) { return 1; } else { return 2; } }")

let test_lower_while_loop () =
  Alcotest.(check int64) "sum 1..10" 55L
    (ret
       {|
       func main() {
         var total = 0;
         var i = 1;
         while (i <= 10) { total = total + i; i = i + 1; }
         return total;
       }
       |})

let test_lower_short_circuit_and () =
  (* The right operand must not execute when the left is false. *)
  Alcotest.(check (list int64)) "rhs not evaluated" []
    (output
       {|
       global g;
       func effect() { print(99); return 1; }
       func main() { if (0 && effect()) { g = 1; } return g; }
       |})

let test_lower_short_circuit_or () =
  Alcotest.(check (list int64)) "rhs not evaluated" []
    (output
       {|
       func effect() { print(99); return 1; }
       func main() { if (1 || effect()) { return 1; } return 0; }
       |})

let test_lower_short_circuit_values () =
  Alcotest.(check int64) "and value" 1L (ret "func main() { return 2 && 3; }");
  Alcotest.(check int64) "and zero" 0L (ret "func main() { return 2 && 0; }");
  Alcotest.(check int64) "or value" 1L (ret "func main() { return 0 || 5; }");
  Alcotest.(check int64) "or zero" 0L (ret "func main() { return 0 || 0; }")

let test_lower_implicit_return () =
  Alcotest.(check int64) "falls off end returns 0" 0L
    (ret "func main() { var x = 5; }")

let test_lower_static_mangling () =
  let m =
    Helpers.compile ~name:"mymod"
      "static func helper() { return 1; } func main() { return helper(); }"
  in
  let names = List.map (fun f -> f.Func.name) m.Cmo_il.Ilmod.funcs in
  Alcotest.(check (list string)) "static mangled"
    [ "mymod::helper"; "main" ] names;
  let helper = List.hd m.Cmo_il.Ilmod.funcs in
  Alcotest.(check bool) "linkage stays local" true
    (helper.Func.linkage = Func.Local)

let test_lower_static_globals_mangled () =
  let m = Helpers.compile ~name:"mm" "static global s; func f() { s = 1; return s; }" in
  match m.Cmo_il.Ilmod.globals with
  | [ g ] ->
    Alcotest.(check string) "mangled" "mm::s" g.Cmo_il.Ilmod.gname;
    Alcotest.(check bool) "not exported" false g.Cmo_il.Ilmod.exported
  | _ -> Alcotest.fail "expected one global"

let test_lower_verifies () =
  let src =
    {|
    global data[16];
    static func fill(n) {
      var i = 0;
      while (i < n) { data[i] = i * i; i = i + 1; }
      return 0;
    }
    func main() {
      fill(16);
      var s = 0;
      var i = 0;
      while (i < 16) { s = s + data[i]; i = i + 1; }
      print(s);
      return s;
    }
    |}
  in
  let m = Helpers.compile src in
  let issues = Verify.check_program [ m ] in
  Alcotest.(check int) "verifies clean" 0 (List.length issues)

let test_lower_src_lines_positive () =
  let m =
    Helpers.compile "func f() {\n  var a = 1;\n  return a;\n}\nfunc main() { return f(); }"
  in
  List.iter
    (fun f -> Alcotest.(check bool) "src_lines positive" true (f.Func.src_lines >= 1))
    m.Cmo_il.Ilmod.funcs

let test_lower_call_sites_deterministic () =
  let src = "func f() { return 0; } func main() { f(); f(); f(); return 0; }" in
  let m1 = Helpers.compile src in
  let m2 = Helpers.compile src in
  let sites m =
    List.concat_map
      (fun f -> List.map fst (Func.site_calls f))
      m.Cmo_il.Ilmod.funcs
  in
  Alcotest.(check (list int)) "same site ids" (sites m1) (sites m2);
  Alcotest.(check (list int)) "sites dense in order" [ 0; 1; 2 ] (sites m2)

let test_lower_nested_call_args () =
  Alcotest.(check int64) "nested calls" 11L
    (ret
       {|
       func add(a, b) { return a + b; }
       func main() { return add(add(1, 2), add(3, 5)); }
       |})

let test_lower_global_scalar_load_store () =
  Alcotest.(check int64) "scalar global" 6L
    (ret "global g; func main() { g = 2; g = g * 3; return g; }")

let test_lower_deep_expression () =
  Alcotest.(check int64) "complex expr" 1L
    (ret
       "func main() { return ((1 + 2 * 3) % 5 == 2) && ((7 ^ 1) == 6) && (8 >> 2 == 2); }")

let test_lower_for_loop () =
  Alcotest.(check int64) "sum of squares 0..9" 285L
    (ret
       {|
       func main() {
         var s = 0;
         for (var i = 0; i < 10; i = i + 1) { s = s + i * i; }
         return s;
       }
       |})

let test_lower_for_no_init_no_step () =
  Alcotest.(check int64) "for with empty header parts" 5L
    (ret
       {|
       func main() {
         var i = 0;
         for (; i < 5;) { i = i + 1; }
         return i;
       }
       |})

let test_lower_for_infinite_with_break () =
  Alcotest.(check int64) "for(;;) with break" 7L
    (ret
       {|
       func main() {
         var n = 0;
         for (;;) {
           n = n + 1;
           if (n == 7) { break; }
         }
         return n;
       }
       |})

let test_lower_break_in_while () =
  Alcotest.(check int64) "break leaves early" 4L
    (ret
       {|
       func main() {
         var i = 0;
         while (i < 100) {
           if (i == 4) { break; }
           i = i + 1;
         }
         return i;
       }
       |})

let test_lower_continue_skips () =
  (* Sum of odd numbers below 10. *)
  Alcotest.(check int64) "continue skips evens" 25L
    (ret
       {|
       func main() {
         var s = 0;
         for (var i = 0; i < 10; i = i + 1) {
           if (i % 2 == 0) { continue; }
           s = s + i;
         }
         return s;
       }
       |})

let test_lower_continue_in_while_reevaluates () =
  Alcotest.(check int64) "continue in while goes to the condition" 10L
    (ret
       {|
       func main() {
         var i = 0;
         var s = 0;
         while (i < 10) {
           i = i + 1;
           if (i & 1) { continue; }
           s = s + 2;
         }
         return s;
       }
       |})

let test_lower_nested_break () =
  (* break only exits the innermost loop. *)
  Alcotest.(check int64) "inner break only" 30L
    (ret
       {|
       func main() {
         var total = 0;
         for (var i = 0; i < 10; i = i + 1) {
           for (var j = 0; j < 100; j = j + 1) {
             if (j == 3) { break; }
             total = total + 1;
           }
         }
         return total;
       }
       |})

let test_for_scope_is_loop_local () =
  (* The for-init variable is not visible after the loop. *)
  Alcotest.(check bool) "loop variable out of scope after loop" true
    (sema_errors
       "func f() { for (var i = 0; i < 3; i = i + 1) { } return i; }"
    <> [])

let test_sema_break_outside_loop () =
  Alcotest.(check bool) "break outside loop rejected" true
    (sema_errors "func f() { break; return 0; }" <> []);
  Alcotest.(check bool) "continue outside loop rejected" true
    (sema_errors "func f() { continue; return 0; }" <> [])

let test_for_unrolls_and_optimizes () =
  (* A constant-trip for loop goes through the full optimizer. *)
  let m =
    Helpers.compile
      "func main() { var s = 0; for (var i = 0; i < 6; i = i + 1) { s = s + i; } return s; }"
  in
  let main = Option.get (Cmo_il.Ilmod.find_func m "main") in
  ignore (Cmo_hlo.Phase.optimize_func main);
  let o = Helpers.run [ m ] in
  Alcotest.(check int64) "still 15" 15L o.Interp.ret

let test_frontend_reports_errors () =
  match Frontend.compile ~module_name:"m" "func f() { return nope; }" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error errs -> Alcotest.(check bool) "has errors" true (errs <> [])

let test_frontend_compile_exn () =
  Alcotest.(check bool) "compile_exn raises Failure" true
    (try
       ignore (Frontend.compile_exn ~module_name:"m" "func f( {}");
       false
     with Failure _ -> true)

let suite =
  [
    ("lex tokens", `Quick, test_lex_tokens);
    ("lex comments", `Quick, test_lex_comments_skipped);
    ("lex line numbers", `Quick, test_lex_line_numbers);
    ("lex two-char operators", `Quick, test_lex_two_char_operators);
    ("lex illegal char", `Quick, test_lex_illegal_char);
    ("parse precedence", `Quick, test_parse_precedence);
    ("parse left associativity", `Quick, test_parse_left_assoc);
    ("parse unary", `Quick, test_parse_unary);
    ("parse error position", `Quick, test_parse_error_position);
    ("parse else-if chain", `Quick, test_parse_else_if_chain);
    ("parse array init", `Quick, test_parse_array_global_init);
    ("parse negative init", `Quick, test_parse_negative_init);
    ("parse oversized init rejected", `Quick, test_parse_oversized_init_rejected);
    ("sema undeclared variable", `Quick, test_sema_undeclared_var);
    ("sema duplicate global", `Quick, test_sema_duplicate_global);
    ("sema duplicate local", `Quick, test_sema_duplicate_local);
    ("sema nested shadowing ok", `Quick, test_sema_shadowing_in_nested_block_ok);
    ("sema arity check", `Quick, test_sema_arity_check);
    ("sema extern call allowed", `Quick, test_sema_extern_call_allowed);
    ("sema intrinsic arity", `Quick, test_sema_intrinsic_arity);
    ("sema array as scalar", `Quick, test_sema_array_as_scalar);
    ("sema index local", `Quick, test_sema_index_local);
    ("sema call a global", `Quick, test_sema_call_global);
    ("sema intrinsic shadowing", `Quick, test_sema_intrinsic_shadowing);
    ("lower if/else", `Quick, test_lower_if_else);
    ("lower while", `Quick, test_lower_while_loop);
    ("lower && short-circuits", `Quick, test_lower_short_circuit_and);
    ("lower || short-circuits", `Quick, test_lower_short_circuit_or);
    ("lower &&/|| values", `Quick, test_lower_short_circuit_values);
    ("lower implicit return", `Quick, test_lower_implicit_return);
    ("lower static function mangling", `Quick, test_lower_static_mangling);
    ("lower static global mangling", `Quick, test_lower_static_globals_mangled);
    ("lowered IL verifies", `Quick, test_lower_verifies);
    ("lower src_lines positive", `Quick, test_lower_src_lines_positive);
    ("lower call sites deterministic", `Quick, test_lower_call_sites_deterministic);
    ("lower nested call args", `Quick, test_lower_nested_call_args);
    ("lower global scalar", `Quick, test_lower_global_scalar_load_store);
    ("lower deep expression", `Quick, test_lower_deep_expression);
    ("lower for loop", `Quick, test_lower_for_loop);
    ("lower for empty parts", `Quick, test_lower_for_no_init_no_step);
    ("lower for(;;) + break", `Quick, test_lower_for_infinite_with_break);
    ("lower break", `Quick, test_lower_break_in_while);
    ("lower continue (for)", `Quick, test_lower_continue_skips);
    ("lower continue (while)", `Quick, test_lower_continue_in_while_reevaluates);
    ("lower nested break", `Quick, test_lower_nested_break);
    ("sema for-init scope", `Quick, test_for_scope_is_loop_local);
    ("sema break/continue placement", `Quick, test_sema_break_outside_loop);
    ("for + optimizer", `Quick, test_for_unrolls_and_optimizes);
    ("frontend reports errors", `Quick, test_frontend_reports_errors);
    ("frontend compile_exn", `Quick, test_frontend_compile_exn);
  ]
