(* The dense frontend against its reference oracle ([Ref_frontend],
   verbatim copies of the list- and Hashtbl-based [Lexer], [Parser],
   [Sema], [Lower], [Symtab] and [Verify] it replaced).  Every source
   goes through both, stage by stage, and the two must agree exactly:
   the same tokens (kind, position, payload), the same AST after
   parsing and after name resolution, the same IL ([Ilcodec] bytes
   and structure), the same verifier issues for each module and for
   the program — or the same error, with the same message at the same
   position, at the same stage.  Inputs are generated programs of the
   three benchmark personalities, the differential fuzzer's
   random-statement programs and every program under test/corpus and
   examples/minic, each also mutated: a character deleted, duplicated
   or replaced by an illegal one, the text truncated, and the
   literals 9223372036854775807 (the largest that lexes) and
   9223372036854775808 (one past it) put in.  IL-level mutations
   (a dropped block, a shrunk counter, a renamed callee, ...) hold the
   verifier to its oracle on malformed routines too. *)

module Lexer = Cmo_frontend.Lexer
module Parser = Cmo_frontend.Parser
module Sema = Cmo_frontend.Sema
module Lower = Cmo_frontend.Lower
module Ast = Cmo_frontend.Ast
module Verify = Cmo_il.Verify
module Ilcodec = Cmo_il.Ilcodec
module Ilmod = Cmo_il.Ilmod
module Func = Cmo_il.Func
module Instr = Cmo_il.Instr
module Ref = Ref_frontend

exception Mismatch of string

let mismatch fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt

let show_pos (p : Ast.pos) = Printf.sprintf "%d:%d" p.Ast.line p.Ast.col

(* ---------- one module, stage by stage ---------- *)

type 'a outcome = Done of 'a | Failed of string * string * Ast.pos  (* stage, message *)

let show_outcome = function
  | Done _ -> "success"
  | Failed (stage, msg, pos) -> Printf.sprintf "%s error %S at %s" stage msg (show_pos pos)

let same_failure what mine theirs =
  match (mine, theirs) with
  | Done _, Done _ -> ()
  | Failed (s, m, p), Failed (s', m', p') when s = s' && m = m' && p = p' -> ()
  | _ -> mismatch "%s: %s, oracle %s" what (show_outcome mine) (show_outcome theirs)

let check_tokens text =
  let mine =
    match Lexer.tokenize text with
    | t -> Done t
    | exception Lexer.Lex_error (m, p) -> Failed ("lex", m, p)
  in
  let theirs =
    match Ref.Lexer.tokenize text with
    | t -> Done t
    | exception Ref.Lexer.Lex_error (m, p) -> Failed ("lex", m, p)
  in
  same_failure "tokens" mine theirs;
  match (mine, theirs) with
  | Done t, Done located ->
    if Lexer.length t <> List.length located then
      mismatch "%d tokens, oracle %d" (Lexer.length t) (List.length located);
    List.iteri
      (fun i (l : Ref.Lexer.located) ->
        let theirs_desc = Ref.Lexer.token_name l.Ref.Lexer.tok in
        let mine_desc = Lexer.describe t i in
        if mine_desc <> theirs_desc || Lexer.pos t i <> l.Ref.Lexer.pos then
          mismatch "token %d: %s at %s, oracle %s at %s" i mine_desc
            (show_pos (Lexer.pos t i)) theirs_desc (show_pos l.Ref.Lexer.pos))
      located
  | _ -> ()

let parse_mine ~name text =
  match Parser.parse ~module_name:name text with
  | ast -> Done ast
  | exception Lexer.Lex_error (m, p) -> Failed ("lex", m, p)
  | exception Parser.Parse_error (m, p) -> Failed ("parse", m, p)

let parse_theirs ~name text =
  match Ref.Parser.parse ~module_name:name text with
  | ast -> Done ast
  | exception Ref.Lexer.Lex_error (m, p) -> Failed ("lex", m, p)
  | exception Ref.Parser.Parse_error (m, p) -> Failed ("parse", m, p)

let show_sema errs =
  String.concat "; "
    (List.map (fun (pos, msg) -> Printf.sprintf "%s %s" (show_pos pos) msg) errs)

let same_issues what (mine : Verify.issue list) (theirs : Ref.Verify.issue list) =
  let mine = List.map (fun (i : Verify.issue) -> (i.Verify.func, i.Verify.message)) mine in
  let theirs =
    List.map (fun (i : Ref.Verify.issue) -> (i.Ref.Verify.func, i.Ref.Verify.message)) theirs
  in
  if mine <> theirs then
    let show l = String.concat "; " (List.map (fun (f, m) -> f ^ ": " ^ m) l) in
    mismatch "%s: issues [%s], oracle [%s]" what (show mine) (show theirs)

let same_il what (mine : Ilmod.t) (theirs : Ilmod.t) =
  if Ilcodec.encode_module mine <> Ilcodec.encode_module theirs then
    mismatch "%s: IL bytes differ from the oracle's\n%s\noracle:\n%s" what
      (Format.asprintf "%a" Ilmod.pp mine)
      (Format.asprintf "%a" Ilmod.pp theirs);
  if mine <> theirs then mismatch "%s: IL equal in bytes but not in structure" what

(* The module's IL from both frontends, or [None] where both stopped
   with the same error. *)
let check_module (name, text) =
  check_tokens text;
  let mine = parse_mine ~name text and theirs = parse_theirs ~name text in
  same_failure "parse" mine theirs;
  match (mine, theirs) with
  | Done ast, Done ast' -> (
    if ast <> ast' then mismatch "parse: AST differs from the oracle's";
    match (Sema.analyze ast, Ref.Sema.analyze ast') with
    | Ok resolved, Ok resolved' ->
      if resolved <> resolved' then mismatch "sema: resolved AST differs from the oracle's";
      let m = Lower.lower_unit resolved and m' = Ref.Lower.lower_unit resolved' in
      same_il "lower" m m';
      same_issues "check_module" (Verify.check_module m) (Ref.Verify.check_module m');
      Some (m, m')
    | Error errs, Error errs' ->
      let errs = List.map (fun (e : Sema.error) -> (e.Sema.pos, e.Sema.msg)) errs in
      let errs' = List.map (fun (e : Ref.Sema.error) -> (e.Ref.Sema.pos, e.Ref.Sema.msg)) errs' in
      if errs <> errs' then
        mismatch "sema: errors [%s], oracle [%s]" (show_sema errs) (show_sema errs');
      None
    | Ok _, Error errs' ->
      mismatch "sema: accepted, oracle refused [%s]"
        (show_sema (List.map (fun (e : Ref.Sema.error) -> (e.Ref.Sema.pos, e.Ref.Sema.msg)) errs'))
    | Error errs, Ok _ ->
      mismatch "sema: refused [%s], oracle accepted"
        (show_sema (List.map (fun (e : Sema.error) -> (e.Sema.pos, e.Sema.msg)) errs)))
  | _ -> None

(* ---------- IL mutations for the verifier ---------- *)

let nth_block (f : Func.t) k = List.nth f.Func.blocks (k mod List.length f.Func.blocks)

(* Break one routine in one of the ways the verifier names. *)
let il_mutations : (string * (Random.State.t -> Func.t -> unit)) list =
  let first_call (f : Func.t) =
    List.find_map
      (fun (b : Func.block) ->
        List.find_map (function Instr.Call c -> Some (b, c) | _ -> None) b.Func.instrs)
      f.Func.blocks
  in
  let replace_call (b : Func.block) (c : Instr.call) c' =
    b.Func.instrs <-
      List.map (function Instr.Call x when x == c -> Instr.Call c' | i -> i) b.Func.instrs
  in
  [
    ("drop all blocks", fun _ f -> f.Func.blocks <- []);
    ( "drop a block",
      fun rs f ->
        let victim = nth_block f (Random.State.bits rs) in
        f.Func.blocks <- List.filter (fun b -> b != victim) f.Func.blocks );
    ( "duplicate a block",
      fun rs f -> f.Func.blocks <- f.Func.blocks @ [ nth_block f (Random.State.bits rs) ] );
    ("shrink next_reg", fun rs f -> f.Func.next_reg <- Random.State.int rs (f.Func.next_reg + 1));
    ("shrink next_label", fun rs f -> f.Func.next_label <- Random.State.int rs (f.Func.next_label + 1));
    ("shrink next_site", fun rs f -> f.Func.next_site <- Random.State.int rs (f.Func.next_site + 1));
    ("move the entry", fun rs f -> f.Func.entry <- f.Func.next_label + Random.State.int rs 3);
    ( "branch to a missing label",
      fun rs f ->
        let b = nth_block f (Random.State.bits rs) in
        b.Func.term <- Instr.Br { cond = Instr.Reg (-1); ifso = -5; ifnot = f.Func.next_label + 7 } );
    ( "repeat a call site",
      fun _ f ->
        match first_call f with
        | Some (b, c) -> b.Func.instrs <- b.Func.instrs @ [ Instr.Call c ]
        | None -> () );
    ( "call with one more argument",
      fun _ f ->
        match first_call f with
        | Some (b, c) -> replace_call b c { c with Instr.args = Instr.Imm 1L :: c.Instr.args }
        | None -> () );
    ( "call an undefined function",
      fun _ f ->
        match first_call f with
        | Some (b, c) -> replace_call b c { c with Instr.callee = "no_such_function" }
        | None -> () );
    ( "load from a function",
      fun rs f ->
        let b = nth_block f (Random.State.bits rs) in
        b.Func.instrs <-
          Instr.Load (f.Func.next_reg + 3, { Instr.base = f.Func.name; index = Instr.Imm 0L })
          :: b.Func.instrs );
  ]

(* Both verifiers on a copy of [program] (both frontends' modules)
   with one routine broken, whole-program and per module.  The dense
   program check is run with every module counted as verified only
   when the unbroken modules all were. *)
let check_broken_il rs (program : (Ilmod.t * Ilmod.t) list) =
  let copy (m : Ilmod.t) =
    { m with Ilmod.funcs = List.map Func.copy m.Ilmod.funcs; globals = m.Ilmod.globals }
  in
  let funcs = List.concat_map (fun ((m : Ilmod.t), _) -> m.Ilmod.funcs) program in
  if funcs <> [] then begin
    let mine = List.map (fun (m, _) -> copy m) program in
    let theirs = List.map (fun (_, m') -> copy m') program in
    let k = Random.State.int rs (List.length funcs) in
    let name, mutate = List.nth il_mutations (Random.State.int rs (List.length il_mutations)) in
    let victims l = List.nth (List.concat_map (fun (m : Ilmod.t) -> m.Ilmod.funcs) l) k in
    let seed = Random.State.bits rs in
    mutate (Random.State.make [| seed |]) (victims mine);
    mutate (Random.State.make [| seed |]) (victims theirs);
    List.iter2
      (fun m m' ->
        same_issues ("broken IL (" ^ name ^ "): check_module") (Verify.check_module m)
          (Ref.Verify.check_module m'))
      mine theirs;
    same_issues ("broken IL (" ^ name ^ "): check_program") (Verify.check_program mine)
      (Ref.Verify.check_program theirs)
  end

(* A whole program: each module as above, then the program check on
   whatever lowered (the dense side counting its modules as verified,
   as [Pipeline.frontend] does when their local checks passed), then
   broken copies of it. *)
let check_program ?(rs = Random.State.make [| 0 |]) program =
  let lowered = List.filter_map check_module program in
  let mine = List.map fst lowered and theirs = List.map snd lowered in
  let clean = List.for_all (fun m -> Verify.check_module m = []) mine in
  same_issues "check_program"
    (Verify.check_program ~verified:(fun _ -> clean) mine)
    (Ref.Verify.check_program theirs);
  check_broken_il rs lowered

(* ---------- source mutations ---------- *)

let largest = "9223372036854775807"

let past_largest = "9223372036854775808"

let illegal = [| '@'; '$'; '#'; '`'; '?'; ':'; '.'; '\''; '"'; '\\'; '\255'; '\000' |]

(* The first literal at or after [i] replaced by [lit], or [lit]
   inserted at [i] when there is none. *)
let put_literal text i lit =
  let n = String.length text in
  let is_digit j = j < n && text.[j] >= '0' && text.[j] <= '9' in
  let rec find j = if j >= n then None else if is_digit j then Some j else find (j + 1) in
  match find i with
  | Some j ->
    let k = ref j in
    while is_digit !k do
      incr k
    done;
    String.sub text 0 j ^ lit ^ String.sub text !k (n - !k)
  | None -> String.sub text 0 i ^ lit ^ String.sub text i (n - i)

let mutations =
  [
    ("delete", fun _ text i -> String.sub text 0 i ^ String.sub text (i + 1) (String.length text - i - 1));
    ("duplicate", fun _ text i -> String.sub text 0 (i + 1) ^ String.sub text i (String.length text - i));
    ( "illegal",
      fun rs text i ->
        String.mapi (fun j c -> if j = i then illegal.(Random.State.int rs (Array.length illegal)) else c) text );
    ("truncate", fun _ text i -> String.sub text 0 i);
    ("largest literal", fun _ text i -> put_literal text i largest);
    ("literal past the largest", fun _ text i -> put_literal text i past_largest);
  ]

let mutate rs (_, f) text =
  if text = "" then text else f rs text (Random.State.int rs (String.length text))

(* The program as given, then each mutation applied to one random
   module of it. *)
let check_with_mutations rs program =
  check_program ~rs program;
  List.iter
    (fun ((kind, _) as m) ->
      let k = Random.State.int rs (List.length program) in
      let mutated =
        List.mapi (fun j (name, text) -> if j = k then (name, mutate rs m text) else (name, text)) program
      in
      try check_program ~rs mutated
      with Mismatch what -> raise (Mismatch (Printf.sprintf "after a %s mutation: %s" kind what)))
    mutations

let run_property program seed =
  try
    check_with_mutations (Random.State.make [| seed |]) program;
    true
  with Mismatch what ->
    QCheck.Test.fail_reportf "%s@.%s" what
      (String.concat "\n" (List.map (fun (n, t) -> "// " ^ n ^ "\n" ^ t) program))

(* Ten programs of each source by default; [QCHECK_LONG=1] runs ten
   times as many. *)
let test_personalities =
  QCheck.Test.make ~name:"lowering: personality programs equal the reference" ~count:10
    ~long_factor:10
    (QCheck.pair Test_analyses.program_arbitrary QCheck.small_nat)
    (fun (p, seed) -> run_property (Test_analyses.small_program p) seed)

let test_statement_programs =
  QCheck.Test.make ~name:"lowering: statement programs equal the reference" ~count:30
    ~long_factor:10
    (QCheck.pair (QCheck.make ~print:Fun.id Test_fuzz.gen_stmt_program) QCheck.small_nat)
    (fun (src, seed) -> run_property [ ("fz", src) ] seed)

(* The corpus as [Test_corpus] finds it under [dune runtest], or from
   the repository root, where [dune exec test/test_main.exe] runs. *)
let corpus_entries =
  lazy
    (match Test_corpus.entries with
     | [] -> List.concat_map Cmo_campaign.Corpus.load_dir [ "test/corpus"; "examples/minic" ]
     | entries -> entries)

(* Every corpus and example program, with twenty rounds of mutations
   each (ten times as many under [QCHECK_LONG=1]). *)
let test_corpus () =
  let entries = Lazy.force corpus_entries in
  Alcotest.(check bool)
    (Printf.sprintf "found %d corpus entries" (List.length entries))
    true
    (List.length entries >= 4);
  let rounds = if Sys.getenv_opt "QCHECK_LONG" = None then 20 else 200 in
  let seed = Lazy.force Helpers.fuzz_seed in
  List.iter
    (fun (name, program) ->
      try
        check_program program;
        let rs = Random.State.make [| seed; Hashtbl.hash name |] in
        for _ = 1 to rounds do
          check_with_mutations rs program
        done
      with Mismatch what -> Alcotest.failf "%s (fuzz seed %d): %s" name seed what)
    entries

(* Hand-written sources for paths the generators reach rarely. *)
let hand_written =
  [
    ("literals at the edge", "global g = 9223372036854775807;\nfunc main() { return 999999999999999999 + 1000000000000000000 + 0000000000000000000000042; }\n");
    ("literal past the edge", "func main() { return 9223372036854775808; }\n");
    ("negative global", "global g = -9223372036854775807;\nfunc main() { return g; }\n");
    ("keywords as prefixes", "func funcs(iffy, whilex) { var returned = iffy; return returned + whilex; }\nfunc main() { return funcs(1, 2); }\n");
    ("colons in names", "func a::b() { return 1; }\nfunc main() { return a::b(); }\n");
    ("unterminated", "func main() { return (1 + ");
    ("empty", "");
    ("comment only", "// nothing\n");
    ("errors in both operands", "func f() { return x + y; }\nfunc g() { q[a] = b; }\n");
    ("shadowing", "func main() { var x = 1; if (x) { var x = 2; print(x); } for (var x = 3; x < 5; x = x + 1) { var y = x; print(y); } return x; }\n");
    ("duplicates", "global g; global g; func f(a, a) { var b = 1; var b = 2; var a = 3; return a; }\nfunc f() { return 0; }\n");
    ("misuse", "global arr[4];\nfunc f() { arr = 1; return arr + f2(1) + print(1, 2) + arr(); }\nfunc f2() { var v = 1; v[0] = 2; break; continue; return v[1]; }\n");
    ("operators", "func main() { var a = 1 << 3 >> 1; var b = a <= 3 || a >= 4 && a != 2 == !0; return -a % 3 ^ b | a & 1; }\n");
    ("statics and externs", "static global s = 3;\nextern global e;\nstatic func h(x) { return x + s + e; }\nfunc main() { return h(1); }\n");
    ("dead code", "func main() { return 1; var x = 2; print(x); }\n");
    ("store statement forms", "global t[3];\nfunc main() { t[1] = 2; t[2]; t[0] + main(); return t[1]; }\n");
  ]

let test_hand_written () =
  List.iter
    (fun (name, text) ->
      try check_program ~rs:(Random.State.make [| 1 |]) [ ("m", text) ]
      with Mismatch what -> Alcotest.failf "%s: %s" name what)
    hand_written

(* The lexer's buffers are reused: a unit lexed after a bigger one,
   after an error and after a released buffer reads only its own
   tokens. *)
let test_buffer_reuse () =
  let big = String.concat "\n" (List.init 200 (fun i -> Printf.sprintf "func f%d(a) { return a + %d; }" i i)) in
  let small = "func main() { return 7; }" in
  ignore (Parser.parse ~module_name:"big" big);
  (try ignore (Parser.parse ~module_name:"bad" "func main() { return @; }")
   with Lexer.Lex_error _ -> ());
  (try ignore (Parser.parse ~module_name:"bad" "func main() { return ; }")
   with Parser.Parse_error _ -> ());
  Alcotest.(check bool) "small after big" true
    (Parser.parse ~module_name:"s" small = Ref.Parser.parse ~module_name:"s" small);
  let t = Lexer.tokenize small in
  Alcotest.(check int) "token count" 10 (Lexer.length t)

let suite =
  [
    Helpers.to_alcotest test_personalities;
    Helpers.to_alcotest test_statement_programs;
    Alcotest.test_case "lowering: corpus programs and mutations equal the reference" `Quick
      test_corpus;
    Alcotest.test_case "lowering: hand-written sources equal the reference" `Quick
      test_hand_written;
    Alcotest.test_case "lowering: lexer buffers are reused cleanly" `Quick test_buffer_reuse;
  ]
