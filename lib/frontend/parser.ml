exception Parse_error of string * Ast.pos

(* The parser indexes into the lexer's token buffer. *)
type state = { lx : Lexer.t; mutable i : int }

(* The parser never moves past the final [EOF]; the guards keep the
   reads in bounds all the same. *)
let peek st = if st.i < Lexer.length st.lx then Lexer.kind st.lx st.i else Lexer.EOF

let here st : Ast.pos =
  if st.i < Lexer.length st.lx then Lexer.pos st.lx st.i else { Ast.line = 0; col = 0 }

let advance st = if st.i < Lexer.length st.lx then st.i <- st.i + 1

(* The kind of the token after the current one. *)
let peek2 st = if st.i + 1 < Lexer.length st.lx then Lexer.kind st.lx (st.i + 1) else Lexer.EOF

let found st = if st.i < Lexer.length st.lx then Lexer.describe st.lx st.i else "end of input"

let error pos fmt =
  Format.kasprintf (fun msg -> raise (Parse_error (msg, pos))) fmt

let expect st (kind : Lexer.kind) =
  if peek st = kind then advance st
  else error (here st) "expected %s but found %s" (Lexer.kind_name kind) (found st)

let expect_name st =
  match peek st with
  | Lexer.IDENT ->
    let name = Lexer.ident st.lx st.i in
    advance st;
    name
  | _ -> error (here st) "expected identifier, found %s" (found st)

(* [expect_name] with the identifier's position. *)
let expect_ident st =
  let pos = here st in
  (expect_name st, pos)

let expect_int st =
  match peek st with
  | Lexer.INT ->
    let v = Lexer.int st.lx st.i in
    advance st;
    v
  | _ -> error (here st) "expected integer, found %s" (found st)

(* Binary operator precedence, loosest first. *)
let binop_of_kind = function
  | Lexer.PIPEPIPE -> Some (Ast.Lor, 1)
  | Lexer.AMPAMP -> Some (Ast.Land, 2)
  | Lexer.PIPE -> Some (Ast.Or, 3)
  | Lexer.CARET -> Some (Ast.Xor, 4)
  | Lexer.AMP -> Some (Ast.And, 5)
  | Lexer.EQ -> Some (Ast.Eq, 6)
  | Lexer.NE -> Some (Ast.Ne, 6)
  | Lexer.LT -> Some (Ast.Lt, 7)
  | Lexer.LE -> Some (Ast.Le, 7)
  | Lexer.GT -> Some (Ast.Gt, 7)
  | Lexer.GE -> Some (Ast.Ge, 7)
  | Lexer.SHL -> Some (Ast.Shl, 8)
  | Lexer.SHR -> Some (Ast.Shr, 8)
  | Lexer.PLUS -> Some (Ast.Add, 9)
  | Lexer.MINUS -> Some (Ast.Sub, 9)
  | Lexer.STAR -> Some (Ast.Mul, 10)
  | Lexer.SLASH -> Some (Ast.Div, 10)
  | Lexer.PERCENT -> Some (Ast.Rem, 10)
  | _ -> None

let rec parse_primary st : Ast.expr =
  match peek st with
  | Lexer.INT ->
    let pos = here st in
    let v = Lexer.int st.lx st.i in
    advance st;
    { Ast.desc = Ast.Int v; pos }
  | Lexer.LPAREN ->
    advance st;
    let e = parse_expr_prec st 1 in
    expect st Lexer.RPAREN;
    e
  | Lexer.MINUS ->
    let pos = here st in
    advance st;
    let e = parse_unary st in
    { Ast.desc = Ast.Unary (Ast.Neg, e); pos }
  | Lexer.BANG ->
    let pos = here st in
    advance st;
    let e = parse_unary st in
    { Ast.desc = Ast.Unary (Ast.Not, e); pos }
  | Lexer.IDENT -> begin
    let pos = here st in
    let name = Lexer.ident st.lx st.i in
    advance st;
    match peek st with
    | Lexer.LPAREN ->
      advance st;
      let args = parse_args st in
      { Ast.desc = Ast.Call (name, args); pos }
    | Lexer.LBRACKET ->
      advance st;
      let idx = parse_expr_prec st 1 in
      expect st Lexer.RBRACKET;
      { Ast.desc = Ast.Index (name, idx); pos }
    | _ -> { Ast.desc = Ast.Var name; pos }
  end
  | _ -> error (here st) "expected expression, found %s" (found st)

and parse_unary st =
  match peek st with
  | Lexer.MINUS ->
    let pos = here st in
    advance st;
    let e = parse_unary st in
    { Ast.desc = Ast.Unary (Ast.Neg, e); pos }
  | Lexer.BANG ->
    let pos = here st in
    advance st;
    let e = parse_unary st in
    { Ast.desc = Ast.Unary (Ast.Not, e); pos }
  | _ -> parse_primary st

and parse_args st =
  if peek st = Lexer.RPAREN then begin
    advance st;
    []
  end
  else parse_more_args st []

and parse_more_args st acc =
  let e = parse_expr_prec st 1 in
  match peek st with
  | Lexer.COMMA ->
    advance st;
    parse_more_args st (e :: acc)
  | _ ->
    expect st Lexer.RPAREN;
    List.rev (e :: acc)

(* The loops below are top-level functions, not local closures, so a
   subexpression allocates only its nodes. *)
and parse_expr_prec st min_prec : Ast.expr = parse_binary st min_prec (parse_unary st)

and parse_binary st min_prec lhs =
  match binop_of_kind (peek st) with
  | Some (op, prec) when prec >= min_prec ->
    let pos = here st in
    advance st;
    let rhs = parse_expr_prec st (prec + 1) in
    parse_binary st min_prec { Ast.desc = Ast.Binary (op, lhs, rhs); pos }
  | _ -> lhs

let parse_expression st = parse_expr_prec st 1

let rec parse_stmt st : Ast.stmt =
  match peek st with
  | Lexer.KW_VAR -> parse_simple_stmt st ~consume_semi:true
  | Lexer.KW_IF ->
    let spos = here st in
    advance st;
    expect st Lexer.LPAREN;
    let cond = parse_expression st in
    expect st Lexer.RPAREN;
    let then_body = parse_block st in
    let else_body =
      if peek st = Lexer.KW_ELSE then begin
        advance st;
        if peek st = Lexer.KW_IF then [ parse_stmt st ] else parse_block st
      end
      else []
    in
    { Ast.sdesc = Ast.If (cond, then_body, else_body); spos }
  | Lexer.KW_WHILE ->
    let spos = here st in
    advance st;
    expect st Lexer.LPAREN;
    let cond = parse_expression st in
    expect st Lexer.RPAREN;
    let body = parse_block st in
    { Ast.sdesc = Ast.While (cond, body); spos }
  | Lexer.KW_FOR ->
    let spos = here st in
    advance st;
    expect st Lexer.LPAREN;
    let init =
      if peek st = Lexer.SEMI then begin
        advance st;
        None
      end
      else Some (parse_simple_stmt st ~consume_semi:true)
    in
    let cond = if peek st = Lexer.SEMI then None else Some (parse_expression st) in
    expect st Lexer.SEMI;
    let step =
      if peek st = Lexer.RPAREN then None
      else Some (parse_simple_stmt st ~consume_semi:false)
    in
    expect st Lexer.RPAREN;
    let body = parse_block st in
    { Ast.sdesc = Ast.For (init, cond, step, body); spos }
  | Lexer.KW_BREAK ->
    let spos = here st in
    advance st;
    expect st Lexer.SEMI;
    { Ast.sdesc = Ast.Break; spos }
  | Lexer.KW_CONTINUE ->
    let spos = here st in
    advance st;
    expect st Lexer.SEMI;
    { Ast.sdesc = Ast.Continue; spos }
  | Lexer.KW_RETURN ->
    let spos = here st in
    advance st;
    if peek st = Lexer.SEMI then begin
      advance st;
      { Ast.sdesc = Ast.Return None; spos }
    end
    else begin
      let e = parse_expression st in
      expect st Lexer.SEMI;
      { Ast.sdesc = Ast.Return (Some e); spos }
    end
  | _ -> parse_simple_stmt st ~consume_semi:true

(* The statement forms legal in a [for] header: declaration,
   assignment, array store, or expression statement. *)
and parse_simple_stmt st ~consume_semi : Ast.stmt =
  let spos = here st in
  let sdesc = parse_simple_desc st spos in
  if consume_semi then expect st Lexer.SEMI;
  { Ast.sdesc; spos }

and parse_simple_desc st spos : Ast.stmt_desc =
  match peek st with
  | Lexer.KW_VAR ->
    advance st;
    let name = expect_name st in
    expect st Lexer.ASSIGN;
    let e = parse_expression st in
    Ast.Decl (name, e)
  | Lexer.IDENT -> begin
    (* Could be assignment, array store, or expression statement. *)
    let name = Lexer.ident st.lx st.i in
    match peek2 st with
    | Lexer.ASSIGN ->
      advance st;
      advance st;
      let e = parse_expression st in
      Ast.Assign (name, e)
    | Lexer.LBRACKET ->
      (* Either a store or an index expression; decide after ']'. *)
      advance st;
      advance st;
      let idx = parse_expression st in
      expect st Lexer.RBRACKET;
      if peek st = Lexer.ASSIGN then begin
        advance st;
        let v = parse_expression st in
        Ast.Store (name, idx, v)
      end
      else begin
        (* Re-wrap as an index expression and continue as expression
           statement (e.g. [a[i] ;] or [a[i] + f();]). *)
        let base = { Ast.desc = Ast.Index (name, idx); pos = spos } in
        Ast.Expr (parse_expr_continue st base)
      end
    | _ -> Ast.Expr (parse_expression st)
  end
  | _ -> Ast.Expr (parse_expression st)

and parse_expr_continue st lhs =
  match binop_of_kind (peek st) with
  | Some (op, prec) ->
    let pos = here st in
    advance st;
    let rhs = parse_expr_prec st (prec + 1) in
    parse_expr_continue st { Ast.desc = Ast.Binary (op, lhs, rhs); pos }
  | None -> lhs

and parse_block st =
  expect st Lexer.LBRACE;
  parse_stmts st []

and parse_stmts st acc =
  if peek st = Lexer.RBRACE then begin
    advance st;
    List.rev acc
  end
  else parse_stmts st (parse_stmt st :: acc)

let parse_global_init st =
  if peek st = Lexer.ASSIGN then begin
    advance st;
    match peek st with
    | Lexer.LBRACE ->
      advance st;
      let rec go acc =
        let v = expect_int st in
        match peek st with
        | Lexer.COMMA ->
          advance st;
          go (v :: acc)
        | _ ->
          expect st Lexer.RBRACE;
          List.rev (v :: acc)
      in
      Array.of_list (go [])
    | Lexer.MINUS ->
      advance st;
      [| Int64.neg (expect_int st) |]
    | _ -> [| expect_int st |]
  end
  else [||]

(* The line of the current token, 0 past the end as [here]. *)
let current_line st = if st.i < Lexer.length st.lx then Lexer.line st.lx st.i else 0

let parse_decl ?(extern_ = false) st static : Ast.decl =
  match peek st with
  | Lexer.KW_GLOBAL ->
    advance st;
    let name, pos = expect_ident st in
    let size =
      if peek st = Lexer.LBRACKET then begin
        advance st;
        let v = expect_int st in
        expect st Lexer.RBRACKET;
        Int64.to_int v
      end
      else 1
    in
    let init = parse_global_init st in
    expect st Lexer.SEMI;
    if size < 1 then error pos "global %s has non-positive size %d" name size;
    if Array.length init > size then
      error pos "global %s initializer longer than its size" name;
    if extern_ && Array.length init > 0 then
      error pos "extern global %s cannot have an initializer" name;
    Ast.Global_decl { name; size; init; static; extern_; pos }
  | Lexer.KW_FUNC ->
    advance st;
    let name, pos = expect_ident st in
    expect st Lexer.LPAREN;
    let params =
      if peek st = Lexer.RPAREN then begin
        advance st;
        []
      end
      else begin
        let rec go acc =
          let p = expect_name st in
          match peek st with
          | Lexer.COMMA ->
            advance st;
            go (p :: acc)
          | _ ->
            expect st Lexer.RPAREN;
            List.rev (p :: acc)
        in
        go []
      end
    in
    let end_before = current_line st in
    let body = parse_block st in
    let end_line = max end_before (current_line st) in
    if extern_ then error pos "extern functions are not declared in MiniC";
    Ast.Func_decl { name; params; body; static; pos; end_line }
  | _ -> error (here st) "expected 'global' or 'func', found %s" (found st)

let parse ~module_name source =
  let st = { lx = Lexer.tokenize source; i = 0 } in
  let rec go acc =
    match peek st with
    | Lexer.EOF -> List.rev acc
    | Lexer.KW_STATIC ->
      advance st;
      go (parse_decl st true :: acc)
    | Lexer.KW_EXTERN ->
      advance st;
      go (parse_decl ~extern_:true st false :: acc)
    | _ -> go (parse_decl st false :: acc)
  in
  let decls = go [] in
  Lexer.release st.lx;
  { Ast.module_name; decls }

let parse_expr source =
  let st = { lx = Lexer.tokenize source; i = 0 } in
  let e = parse_expression st in
  Lexer.release st.lx;
  e
