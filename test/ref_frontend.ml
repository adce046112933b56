(* Reference oracles for the frontend: verbatim copies of [Lexer],
   [Parser], [Sema] and [Lower] as they were before they moved onto
   dense state (a located-token list, polymorphic Hashtbl scopes, one
   table per frame, blocks appended with [Func.add_block]), and of the
   IL checks the frontend stage runs, [Symtab] and [Verify] (a
   Hashtbl per routine, [List.mem] deduplication, the full check of
   every module).  The [lowering] suite holds the dense frontend to
   these: equal ASTs, equal IL bytes and the same issues, or the same
   error at the same position. *)

module Ast = Cmo_frontend.Ast

module Lexer = struct
  type token =
    | INT of int64
    | IDENT of string
    | KW_FUNC | KW_GLOBAL | KW_STATIC | KW_EXTERN | KW_VAR | KW_IF | KW_ELSE
    | KW_WHILE | KW_FOR | KW_BREAK | KW_CONTINUE | KW_RETURN
    | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
    | COMMA | SEMI | ASSIGN
    | PLUS | MINUS | STAR | SLASH | PERCENT
    | AMP | PIPE | CARET | SHL | SHR
    | EQ | NE | LT | LE | GT | GE
    | AMPAMP | PIPEPIPE | BANG
    | EOF

  type located = { tok : token; pos : Ast.pos }

  exception Lex_error of string * Ast.pos

  type cursor = {
    src : string;
    mutable pos : int;
    mutable line : int;
    mutable bol : int;  (* offset of beginning of current line *)
  }

  let here c : Ast.pos = { Ast.line = c.line; col = c.pos - c.bol + 1 }

  (* The character tests read the source in place: returning the
     current character as an option would allocate once per character. *)
  let looking_at c p = c.pos < String.length c.src && p (String.unsafe_get c.src c.pos)

  let at c (ch : char) = c.pos < String.length c.src && String.unsafe_get c.src c.pos = ch

  let advance c =
    if at c '\n' then begin
      c.line <- c.line + 1;
      c.bol <- c.pos + 1
    end;
    c.pos <- c.pos + 1

  let is_digit ch = ch >= '0' && ch <= '9'

  let is_ident_start ch =
    (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || ch = '_'

  let is_ident_char ch = is_ident_start ch || is_digit ch || ch = ':'

  let is_space = function ' ' | '\t' | '\r' | '\n' -> true | _ -> false

  let rec skip_ws c =
    if looking_at c is_space then begin
      advance c;
      skip_ws c
    end
    else if at c '/' && c.pos + 1 < String.length c.src && c.src.[c.pos + 1] = '/' then begin
      while c.pos < String.length c.src && not (at c '\n') do
        advance c
      done;
      skip_ws c
    end

  let lex_number c pos =
    let start = c.pos in
    if at c '-' then advance c;
    while looking_at c is_digit do
      advance c
    done;
    let text = String.sub c.src start (c.pos - start) in
    match Int64.of_string_opt text with
    | Some v -> { tok = INT v; pos }
    | None -> raise (Lex_error (Printf.sprintf "malformed number %S" text, pos))

  let lex_ident c pos =
    let start = c.pos in
    while looking_at c is_ident_char do
      advance c
    done;
    let tok =
      match String.sub c.src start (c.pos - start) with
      | "func" -> KW_FUNC
      | "global" -> KW_GLOBAL
      | "static" -> KW_STATIC
      | "extern" -> KW_EXTERN
      | "var" -> KW_VAR
      | "if" -> KW_IF
      | "else" -> KW_ELSE
      | "while" -> KW_WHILE
      | "for" -> KW_FOR
      | "break" -> KW_BREAK
      | "continue" -> KW_CONTINUE
      | "return" -> KW_RETURN
      | text -> IDENT text
    in
    { tok; pos }

  let two c pos first second tok_two tok_one =
    advance c;
    if at c second then begin
      advance c;
      { tok = tok_two; pos }
    end
    else
      match tok_one with
      | Some t -> { tok = t; pos }
      | None ->
        raise
          (Lex_error (Printf.sprintf "expected %c after %c" second first, pos))

  let next_token c =
    skip_ws c;
    let pos = here c in
    if c.pos >= String.length c.src then { tok = EOF; pos }
    else
      let ch = c.src.[c.pos] in
      if is_digit ch then lex_number c pos
      else if is_ident_start ch then lex_ident c pos
      else begin
        match ch with
        | '(' -> advance c; { tok = LPAREN; pos }
        | ')' -> advance c; { tok = RPAREN; pos }
        | '{' -> advance c; { tok = LBRACE; pos }
        | '}' -> advance c; { tok = RBRACE; pos }
        | '[' -> advance c; { tok = LBRACKET; pos }
        | ']' -> advance c; { tok = RBRACKET; pos }
        | ',' -> advance c; { tok = COMMA; pos }
        | ';' -> advance c; { tok = SEMI; pos }
        | '+' -> advance c; { tok = PLUS; pos }
        | '-' -> advance c; { tok = MINUS; pos }
        | '*' -> advance c; { tok = STAR; pos }
        | '/' -> advance c; { tok = SLASH; pos }
        | '%' -> advance c; { tok = PERCENT; pos }
        | '^' -> advance c; { tok = CARET; pos }
        | '&' -> two c pos '&' '&' AMPAMP (Some AMP)
        | '|' -> two c pos '|' '|' PIPEPIPE (Some PIPE)
        | '=' -> two c pos '=' '=' EQ (Some ASSIGN)
        | '!' -> two c pos '!' '=' NE (Some BANG)
        | '<' ->
          advance c;
          if at c '=' then (advance c; { tok = LE; pos })
          else if at c '<' then (advance c; { tok = SHL; pos })
          else { tok = LT; pos }
        | '>' ->
          advance c;
          if at c '=' then (advance c; { tok = GE; pos })
          else if at c '>' then (advance c; { tok = SHR; pos })
          else { tok = GT; pos }
        | _ ->
          raise (Lex_error (Printf.sprintf "illegal character %C" ch, pos))
      end

  let tokenize src =
    let c = { src; pos = 0; line = 1; bol = 0 } in
    let rec go acc =
      let t = next_token c in
      if t.tok = EOF then List.rev (t :: acc) else go (t :: acc)
    in
    go []

  let token_name = function
    | INT v -> Printf.sprintf "integer %Ld" v
    | IDENT s -> Printf.sprintf "identifier %s" s
    | KW_FUNC -> "'func'" | KW_GLOBAL -> "'global'" | KW_STATIC -> "'static'"
    | KW_EXTERN -> "'extern'"
    | KW_VAR -> "'var'" | KW_IF -> "'if'" | KW_ELSE -> "'else'"
    | KW_WHILE -> "'while'" | KW_FOR -> "'for'" | KW_RETURN -> "'return'"
    | KW_BREAK -> "'break'" | KW_CONTINUE -> "'continue'"
    | LPAREN -> "'('" | RPAREN -> "')'" | LBRACE -> "'{'" | RBRACE -> "'}'"
    | LBRACKET -> "'['" | RBRACKET -> "']'"
    | COMMA -> "','" | SEMI -> "';'" | ASSIGN -> "'='"
    | PLUS -> "'+'" | MINUS -> "'-'" | STAR -> "'*'" | SLASH -> "'/'"
    | PERCENT -> "'%'"
    | AMP -> "'&'" | PIPE -> "'|'" | CARET -> "'^'" | SHL -> "'<<'" | SHR -> "'>>'"
    | EQ -> "'=='" | NE -> "'!='" | LT -> "'<'" | LE -> "'<='" | GT -> "'>'"
    | GE -> "'>='"
    | AMPAMP -> "'&&'" | PIPEPIPE -> "'||'" | BANG -> "'!'"
    | EOF -> "end of input"
end

module Parser = struct
  exception Parse_error of string * Ast.pos

  type state = { mutable toks : Lexer.located list }

  let peek st =
    match st.toks with
    | t :: _ -> t
    | [] -> { Lexer.tok = Lexer.EOF; pos = { Ast.line = 0; col = 0 } }

  let advance st = match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

  let error pos fmt =
    Format.kasprintf (fun msg -> raise (Parse_error (msg, pos))) fmt

  let expect st tok =
    let t = peek st in
    if t.Lexer.tok = tok then advance st
    else
      error t.Lexer.pos "expected %s but found %s" (Lexer.token_name tok)
        (Lexer.token_name t.Lexer.tok)

  let expect_ident st =
    let t = peek st in
    match t.Lexer.tok with
    | Lexer.IDENT name ->
      advance st;
      (name, t.Lexer.pos)
    | other -> error t.Lexer.pos "expected identifier, found %s" (Lexer.token_name other)

  let expect_int st =
    let t = peek st in
    match t.Lexer.tok with
    | Lexer.INT v ->
      advance st;
      v
    | other -> error t.Lexer.pos "expected integer, found %s" (Lexer.token_name other)

  (* Binary operator precedence, loosest first. *)
  let binop_of_token = function
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
    let t = peek st in
    match t.Lexer.tok with
    | Lexer.INT v ->
      advance st;
      { Ast.desc = Ast.Int v; pos = t.Lexer.pos }
    | Lexer.LPAREN ->
      advance st;
      let e = parse_expr_prec st 1 in
      expect st Lexer.RPAREN;
      e
    | Lexer.MINUS ->
      advance st;
      let e = parse_unary st in
      { Ast.desc = Ast.Unary (Ast.Neg, e); pos = t.Lexer.pos }
    | Lexer.BANG ->
      advance st;
      let e = parse_unary st in
      { Ast.desc = Ast.Unary (Ast.Not, e); pos = t.Lexer.pos }
    | Lexer.IDENT name -> begin
      advance st;
      match (peek st).Lexer.tok with
      | Lexer.LPAREN ->
        advance st;
        let args = parse_args st in
        { Ast.desc = Ast.Call (name, args); pos = t.Lexer.pos }
      | Lexer.LBRACKET ->
        advance st;
        let idx = parse_expr_prec st 1 in
        expect st Lexer.RBRACKET;
        { Ast.desc = Ast.Index (name, idx); pos = t.Lexer.pos }
      | _ -> { Ast.desc = Ast.Var name; pos = t.Lexer.pos }
    end
    | other -> error t.Lexer.pos "expected expression, found %s" (Lexer.token_name other)

  and parse_unary st =
    let t = peek st in
    match t.Lexer.tok with
    | Lexer.MINUS ->
      advance st;
      let e = parse_unary st in
      { Ast.desc = Ast.Unary (Ast.Neg, e); pos = t.Lexer.pos }
    | Lexer.BANG ->
      advance st;
      let e = parse_unary st in
      { Ast.desc = Ast.Unary (Ast.Not, e); pos = t.Lexer.pos }
    | _ -> parse_primary st

  and parse_args st =
    if (peek st).Lexer.tok = Lexer.RPAREN then begin
      advance st;
      []
    end
    else begin
      let rec go acc =
        let e = parse_expr_prec st 1 in
        match (peek st).Lexer.tok with
        | Lexer.COMMA ->
          advance st;
          go (e :: acc)
        | _ ->
          expect st Lexer.RPAREN;
          List.rev (e :: acc)
      in
      go []
    end

  and parse_expr_prec st min_prec : Ast.expr =
    let lhs = parse_unary st in
    let rec loop lhs =
      let t = peek st in
      match binop_of_token t.Lexer.tok with
      | Some (op, prec) when prec >= min_prec ->
        advance st;
        let rhs = parse_expr_prec st (prec + 1) in
        loop { Ast.desc = Ast.Binary (op, lhs, rhs); pos = t.Lexer.pos }
      | _ -> lhs
    in
    loop lhs

  let parse_expression st = parse_expr_prec st 1

  let rec parse_stmt st : Ast.stmt =
    let t = peek st in
    match t.Lexer.tok with
    | Lexer.KW_VAR -> parse_simple_stmt st ~consume_semi:true
    | Lexer.KW_IF ->
      advance st;
      expect st Lexer.LPAREN;
      let cond = parse_expression st in
      expect st Lexer.RPAREN;
      let then_body = parse_block st in
      let else_body =
        if (peek st).Lexer.tok = Lexer.KW_ELSE then begin
          advance st;
          if (peek st).Lexer.tok = Lexer.KW_IF then [ parse_stmt st ]
          else parse_block st
        end
        else []
      in
      { Ast.sdesc = Ast.If (cond, then_body, else_body); spos = t.Lexer.pos }
    | Lexer.KW_WHILE ->
      advance st;
      expect st Lexer.LPAREN;
      let cond = parse_expression st in
      expect st Lexer.RPAREN;
      let body = parse_block st in
      { Ast.sdesc = Ast.While (cond, body); spos = t.Lexer.pos }
    | Lexer.KW_FOR ->
      advance st;
      expect st Lexer.LPAREN;
      let init =
        if (peek st).Lexer.tok = Lexer.SEMI then begin
          advance st;
          None
        end
        else Some (parse_simple_stmt st ~consume_semi:true)
      in
      let cond =
        if (peek st).Lexer.tok = Lexer.SEMI then None
        else Some (parse_expression st)
      in
      expect st Lexer.SEMI;
      let step =
        if (peek st).Lexer.tok = Lexer.RPAREN then None
        else Some (parse_simple_stmt st ~consume_semi:false)
      in
      expect st Lexer.RPAREN;
      let body = parse_block st in
      { Ast.sdesc = Ast.For (init, cond, step, body); spos = t.Lexer.pos }
    | Lexer.KW_BREAK ->
      advance st;
      expect st Lexer.SEMI;
      { Ast.sdesc = Ast.Break; spos = t.Lexer.pos }
    | Lexer.KW_CONTINUE ->
      advance st;
      expect st Lexer.SEMI;
      { Ast.sdesc = Ast.Continue; spos = t.Lexer.pos }
    | Lexer.KW_RETURN ->
      advance st;
      if (peek st).Lexer.tok = Lexer.SEMI then begin
        advance st;
        { Ast.sdesc = Ast.Return None; spos = t.Lexer.pos }
      end
      else begin
        let e = parse_expression st in
        expect st Lexer.SEMI;
        { Ast.sdesc = Ast.Return (Some e); spos = t.Lexer.pos }
      end
    | _ -> parse_simple_stmt st ~consume_semi:true

  (* The statement forms legal in a [for] header: declaration,
     assignment, array store, or expression statement. *)
  and parse_simple_stmt st ~consume_semi : Ast.stmt =
    let t = peek st in
    let finish sdesc =
      if consume_semi then expect st Lexer.SEMI;
      { Ast.sdesc; spos = t.Lexer.pos }
    in
    match t.Lexer.tok with
    | Lexer.KW_VAR ->
      advance st;
      let name, _ = expect_ident st in
      expect st Lexer.ASSIGN;
      let e = parse_expression st in
      finish (Ast.Decl (name, e))
    | Lexer.IDENT name -> begin
      (* Could be assignment, array store, or expression statement. *)
      match st.toks with
      | _ :: { Lexer.tok = Lexer.ASSIGN; _ } :: _ ->
        advance st;
        advance st;
        let e = parse_expression st in
        finish (Ast.Assign (name, e))
      | _ :: { Lexer.tok = Lexer.LBRACKET; _ } :: _ ->
        (* Either a store or an index expression; decide after ']'. *)
        advance st;
        advance st;
        let idx = parse_expression st in
        expect st Lexer.RBRACKET;
        if (peek st).Lexer.tok = Lexer.ASSIGN then begin
          advance st;
          let v = parse_expression st in
          finish (Ast.Store (name, idx, v))
        end
        else begin
          (* Re-wrap as an index expression and continue as expression
             statement (e.g. [a[i] ;] or [a[i] + f();]). *)
          let base = { Ast.desc = Ast.Index (name, idx); pos = t.Lexer.pos } in
          let e = parse_expr_continue st base in
          finish (Ast.Expr e)
        end
      | _ -> finish (Ast.Expr (parse_expression st))
    end
    | _ -> finish (Ast.Expr (parse_expression st))

  and parse_expr_continue st lhs =
    let rec loop lhs =
      let t = peek st in
      match binop_of_token t.Lexer.tok with
      | Some (op, prec) ->
        advance st;
        let rhs = parse_expr_prec st (prec + 1) in
        loop { Ast.desc = Ast.Binary (op, lhs, rhs); pos = t.Lexer.pos }
      | None -> lhs
    in
    loop lhs

  and parse_block st =
    expect st Lexer.LBRACE;
    let rec go acc =
      if (peek st).Lexer.tok = Lexer.RBRACE then begin
        advance st;
        List.rev acc
      end
      else go (parse_stmt st :: acc)
    in
    go []

  let parse_global_init st =
    if (peek st).Lexer.tok = Lexer.ASSIGN then begin
      advance st;
      match (peek st).Lexer.tok with
      | Lexer.LBRACE ->
        advance st;
        let rec go acc =
          let v = expect_int st in
          match (peek st).Lexer.tok with
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

  let parse_decl ?(extern_ = false) st static : Ast.decl =
    let t = peek st in
    match t.Lexer.tok with
    | Lexer.KW_GLOBAL ->
      advance st;
      let name, pos = expect_ident st in
      let size =
        if (peek st).Lexer.tok = Lexer.LBRACKET then begin
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
        if (peek st).Lexer.tok = Lexer.RPAREN then begin
          advance st;
          []
        end
        else begin
          let rec go acc =
            let p, _ = expect_ident st in
            match (peek st).Lexer.tok with
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
      let end_before = (peek st).Lexer.pos.Ast.line in
      let body = parse_block st in
      let end_line = max end_before (peek st).Lexer.pos.Ast.line in
      if extern_ then error pos "extern functions are not declared in MiniC";
      Ast.Func_decl { name; params; body; static; pos; end_line }
    | other ->
      error t.Lexer.pos "expected 'global' or 'func', found %s"
        (Lexer.token_name other)

  let parse ~module_name source =
    let st = { toks = Lexer.tokenize source } in
    let rec go acc =
      match (peek st).Lexer.tok with
      | Lexer.EOF -> List.rev acc
      | Lexer.KW_STATIC ->
        advance st;
        go (parse_decl st true :: acc)
      | Lexer.KW_EXTERN ->
        advance st;
        go (parse_decl ~extern_:true st false :: acc)
      | _ -> go (parse_decl st false :: acc)
    in
    { Ast.module_name; decls = go [] }

  let parse_expr source =
    let st = { toks = Lexer.tokenize source } in
    parse_expression st
end

module Sema = struct
  type error = { pos : Ast.pos; msg : string }

  type scope = {
    globals : (string, int) Hashtbl.t;  (* name -> size *)
    funcs : (string, int) Hashtbl.t;  (* name -> arity *)
    mutable errors : error list;
    mutable loop_depth : int;  (* break/continue legality *)
  }

  let err scope pos fmt =
    Format.kasprintf (fun msg -> scope.errors <- { pos; msg } :: scope.errors) fmt

  let build_scope (unit_ : Ast.unit_) =
    let scope =
      { globals = Hashtbl.create 32; funcs = Hashtbl.create 32; errors = [];
        loop_depth = 0 }
    in
    List.iter
      (fun decl ->
        match decl with
        | Ast.Global_decl { name; size; pos; _ } ->
          if Hashtbl.mem scope.globals name || Hashtbl.mem scope.funcs name then
            err scope pos "duplicate declaration of %s" name
          else Hashtbl.replace scope.globals name size
        | Ast.Func_decl { name; params; pos; _ } ->
          if Hashtbl.mem scope.globals name || Hashtbl.mem scope.funcs name then
            err scope pos "duplicate declaration of %s" name
          else if Cmo_il.Intrinsics.is_intrinsic name then
            err scope pos "function %s shadows an intrinsic" name
          else Hashtbl.replace scope.funcs name (List.length params))
      unit_.Ast.decls;
    scope

  (* Locals are block-scoped with shadowing; a simple association list
     of frames suffices. *)
  type locals = (string, unit) Hashtbl.t list

  let local_defined (frames : locals) name =
    List.exists (fun f -> Hashtbl.mem f name) frames

  let rec resolve_expr scope (frames : locals) (e : Ast.expr) : Ast.expr =
    let desc =
      match e.Ast.desc with
      | Ast.Int _ as d -> d
      | Ast.Var name ->
        if local_defined frames name then Ast.Var name
        else if Hashtbl.mem scope.globals name then begin
          if Hashtbl.find scope.globals name <> 1 then
            err scope e.Ast.pos "array global %s used as a scalar" name;
          Ast.Global name
        end
        else begin
          err scope e.Ast.pos "undeclared variable %s" name;
          Ast.Var name
        end
      | Ast.Global _ as d -> d
      | Ast.Index (base, idx) ->
        if local_defined frames base then
          err scope e.Ast.pos "cannot index local variable %s" base
        else if not (Hashtbl.mem scope.globals base) then
          err scope e.Ast.pos "undeclared global %s" base;
        Ast.Index (base, resolve_expr scope frames idx)
      | Ast.Unary (op, a) -> Ast.Unary (op, resolve_expr scope frames a)
      | Ast.Binary (op, a, b) ->
        Ast.Binary (op, resolve_expr scope frames a, resolve_expr scope frames b)
      | Ast.Call (callee, args) ->
        (if local_defined frames callee || Hashtbl.mem scope.globals callee then
           err scope e.Ast.pos "%s is not a function" callee
         else
           match Cmo_il.Intrinsics.arity callee with
           | Some a ->
             if List.length args <> a then
               err scope e.Ast.pos "intrinsic %s expects %d argument(s), got %d"
                 callee a (List.length args)
           | None -> (
             match Hashtbl.find_opt scope.funcs callee with
             | Some arity ->
               if List.length args <> arity then
                 err scope e.Ast.pos "%s expects %d argument(s), got %d" callee
                   arity (List.length args)
             | None -> (* extern: checked at link time *) ()));
        Ast.Call (callee, List.map (resolve_expr scope frames) args)
    in
    { e with Ast.desc }

  let rec resolve_stmt scope (frames : locals) (s : Ast.stmt) : Ast.stmt =
    let sdesc =
      match s.Ast.sdesc with
      | Ast.Decl (name, e) ->
        let e = resolve_expr scope frames e in
        (match frames with
        | top :: _ ->
          if Hashtbl.mem top name then
            err scope s.Ast.spos "duplicate local %s in the same block" name
          else Hashtbl.replace top name ()
        | [] -> assert false);
        Ast.Decl (name, e)
      | Ast.Assign (name, e) ->
        let e = resolve_expr scope frames e in
        if local_defined frames name then Ast.Assign (name, e)
        else if Hashtbl.mem scope.globals name then begin
          if Hashtbl.find scope.globals name <> 1 then
            err scope s.Ast.spos "cannot assign whole array %s" name;
          Ast.Assign (name, e)
        end
        else begin
          err scope s.Ast.spos "assignment to undeclared variable %s" name;
          Ast.Assign (name, e)
        end
      | Ast.Store (base, idx, v) ->
        if local_defined frames base then
          err scope s.Ast.spos "cannot index local variable %s" base
        else if not (Hashtbl.mem scope.globals base) then
          err scope s.Ast.spos "undeclared global %s" base;
        Ast.Store
          (base, resolve_expr scope frames idx, resolve_expr scope frames v)
      | Ast.If (cond, then_body, else_body) ->
        let cond = resolve_expr scope frames cond in
        let then_body = resolve_body scope frames then_body in
        let else_body = resolve_body scope frames else_body in
        Ast.If (cond, then_body, else_body)
      | Ast.While (cond, body) ->
        let cond = resolve_expr scope frames cond in
        scope.loop_depth <- scope.loop_depth + 1;
        let body = resolve_body scope frames body in
        scope.loop_depth <- scope.loop_depth - 1;
        Ast.While (cond, body)
      | Ast.For (init, cond, step, body) ->
        (* The init's bindings are visible to cond, step and body. *)
        let frame = Hashtbl.create 4 in
        let frames' = frame :: frames in
        let init = Option.map (resolve_stmt scope frames') init in
        let cond = Option.map (resolve_expr scope frames') cond in
        scope.loop_depth <- scope.loop_depth + 1;
        let body = resolve_body scope frames' body in
        let step = Option.map (resolve_stmt scope frames') step in
        scope.loop_depth <- scope.loop_depth - 1;
        Ast.For (init, cond, step, body)
      | Ast.Break ->
        if scope.loop_depth = 0 then
          err scope s.Ast.spos "break outside of a loop";
        Ast.Break
      | Ast.Continue ->
        if scope.loop_depth = 0 then
          err scope s.Ast.spos "continue outside of a loop";
        Ast.Continue
      | Ast.Return None -> Ast.Return None
      | Ast.Return (Some e) -> Ast.Return (Some (resolve_expr scope frames e))
      | Ast.Expr e -> Ast.Expr (resolve_expr scope frames e)
    in
    { s with Ast.sdesc }

  and resolve_body scope frames body =
    let frame = Hashtbl.create 8 in
    List.map (resolve_stmt scope (frame :: frames)) body

  let resolve_func scope name params body pos =
    let frame = Hashtbl.create 8 in
    List.iter
      (fun p ->
        if Hashtbl.mem frame p then err scope pos "duplicate parameter %s in %s" p name
        else Hashtbl.replace frame p ())
      params;
    List.map (resolve_stmt scope [ frame ]) body

  let analyze (unit_ : Ast.unit_) =
    let scope = build_scope unit_ in
    let decls =
      List.map
        (fun decl ->
          match decl with
          | Ast.Global_decl _ -> decl
          | Ast.Func_decl { name; params; body; static; pos; end_line } ->
            Ast.Func_decl
              {
                name;
                params;
                body = resolve_func scope name params body pos;
                static;
                pos;
                end_line;
              })
        unit_.Ast.decls
    in
    match scope.errors with
    | [] -> Ok { unit_ with Ast.decls }
    | errors -> Error (List.rev errors)

  let pp_error ppf { pos; msg } =
    Format.fprintf ppf "line %d, col %d: %s" pos.Ast.line pos.Ast.col msg
end

module Lower = struct
  module Instr = Cmo_il.Instr
  module Func = Cmo_il.Func
  module Ilmod = Cmo_il.Ilmod
  module Intrinsics = Cmo_il.Intrinsics

  let mangle module_name name = module_name ^ "::" ^ name

  type ctx = {
    func : Func.t;
    resolve : string -> string;  (* static-name mangling *)
    mutable frames : (string, Instr.reg) Hashtbl.t list;
    mutable cur : Func.block option;
    mutable cur_instrs : Instr.instr list;  (* reversed *)
    mutable loops : (Instr.label * Instr.label) list;
        (* innermost first: (continue target, break target) *)
  }

  let fresh_block ctx =
    (* Terminator is patched when the block is finished. *)
    Func.add_block ctx.func [] (Instr.Ret None)

  let start ctx block =
    ctx.cur <- Some block;
    ctx.cur_instrs <- []

  let emit ctx instr = ctx.cur_instrs <- instr :: ctx.cur_instrs

  let finish ctx term =
    match ctx.cur with
    | None -> ()  (* unreachable code after a return: drop it *)
    | Some b ->
      b.Func.instrs <- List.rev ctx.cur_instrs;
      b.Func.term <- term;
      ctx.cur <- None;
      ctx.cur_instrs <- []

  let in_block ctx = ctx.cur <> None

  let lookup_var ctx name =
    let rec go = function
      | [] -> None
      | frame :: rest -> (
        match Hashtbl.find_opt frame name with
        | Some r -> Some r
        | None -> go rest)
    in
    go ctx.frames

  let define_var ctx name =
    let r = Func.new_reg ctx.func in
    (match ctx.frames with
    | frame :: _ -> Hashtbl.replace frame name r
    | [] -> assert false);
    r

  let scalar_addr ctx name = { Instr.base = ctx.resolve name; index = Instr.Imm 0L }

  let il_binop : Ast.binop -> Instr.binop = function
    | Ast.Add -> Instr.Add | Ast.Sub -> Instr.Sub | Ast.Mul -> Instr.Mul
    | Ast.Div -> Instr.Div | Ast.Rem -> Instr.Rem
    | Ast.And -> Instr.And | Ast.Or -> Instr.Or | Ast.Xor -> Instr.Xor
    | Ast.Shl -> Instr.Shl | Ast.Shr -> Instr.Shr
    | Ast.Eq -> Instr.Eq | Ast.Ne -> Instr.Ne | Ast.Lt -> Instr.Lt
    | Ast.Le -> Instr.Le | Ast.Gt -> Instr.Gt | Ast.Ge -> Instr.Ge
    | Ast.Land | Ast.Lor -> assert false  (* handled by control flow *)

  let rec lower_expr ctx (e : Ast.expr) : Instr.operand =
    match e.Ast.desc with
    | Ast.Int v -> Instr.Imm v
    | Ast.Var name -> (
      match lookup_var ctx name with
      | Some r -> Instr.Reg r
      | None ->
        (* Sema guarantees this cannot happen. *)
        invalid_arg (Printf.sprintf "Lower: unresolved variable %s" name))
    | Ast.Global name ->
      let d = Func.new_reg ctx.func in
      emit ctx (Instr.Load (d, scalar_addr ctx name));
      Instr.Reg d
    | Ast.Index (base, idx) ->
      let index = lower_expr ctx idx in
      let d = Func.new_reg ctx.func in
      emit ctx (Instr.Load (d, { Instr.base = ctx.resolve base; index }));
      Instr.Reg d
    | Ast.Unary (op, a) ->
      let a = lower_expr ctx a in
      let d = Func.new_reg ctx.func in
      let il_op = match op with Ast.Neg -> Instr.Neg | Ast.Not -> Instr.Not in
      emit ctx (Instr.Unop (il_op, d, a));
      Instr.Reg d
    | Ast.Binary (Ast.Land, a, b) -> lower_short_circuit ctx ~is_and:true a b
    | Ast.Binary (Ast.Lor, a, b) -> lower_short_circuit ctx ~is_and:false a b
    | Ast.Binary (op, a, b) ->
      let a = lower_expr ctx a in
      let b = lower_expr ctx b in
      let d = Func.new_reg ctx.func in
      emit ctx (Instr.Binop (il_binop op, d, a, b));
      Instr.Reg d
    | Ast.Call (callee, args) -> Instr.Reg (lower_call ctx ~want_result:true callee args)

  and lower_call ctx ~want_result callee args =
    let argv = List.map (lower_expr ctx) args in
    let resolved =
      if Intrinsics.is_intrinsic callee then callee else ctx.resolve callee
    in
    let dst = if want_result then Some (Func.new_reg ctx.func) else None in
    let site = Func.new_site ctx.func in
    emit ctx
      (Instr.Call { Instr.dst; callee = resolved; args = argv; site; call_count = 0.0 });
    match dst with Some d -> d | None -> 0

  and lower_short_circuit ctx ~is_and a b =
    (* r = a && b  ==>
         r = 0 (resp. 1); if a (resp. !a) then r = (b != 0) *)
    let result = Func.new_reg ctx.func in
    let a_val = lower_expr ctx a in
    emit ctx (Instr.Move (result, Instr.Imm (if is_and then 0L else 1L)));
    let b_block = fresh_block ctx in
    let join = fresh_block ctx in
    let ifso, ifnot =
      if is_and then (b_block.Func.label, join.Func.label)
      else (join.Func.label, b_block.Func.label)
    in
    finish ctx (Instr.Br { cond = a_val; ifso; ifnot });
    start ctx b_block;
    let b_val = lower_expr ctx b in
    emit ctx (Instr.Binop (Instr.Ne, result, b_val, Instr.Imm 0L));
    finish ctx (Instr.Jmp join.Func.label);
    start ctx join;
    Instr.Reg result

  let rec lower_stmt ctx (s : Ast.stmt) =
    if in_block ctx then
      match s.Ast.sdesc with
      | Ast.Decl (name, e) ->
        let v = lower_expr ctx e in
        let r = define_var ctx name in
        emit ctx (Instr.Move (r, v))
      | Ast.Assign (name, e) -> (
        let v = lower_expr ctx e in
        match lookup_var ctx name with
        | Some r -> emit ctx (Instr.Move (r, v))
        | None -> emit ctx (Instr.Store (scalar_addr ctx name, v)))
      | Ast.Store (base, idx, e) ->
        let index = lower_expr ctx idx in
        let v = lower_expr ctx e in
        emit ctx (Instr.Store ({ Instr.base = ctx.resolve base; index }, v))
      | Ast.If (cond, then_body, else_body) ->
        let c = lower_expr ctx cond in
        let then_block = fresh_block ctx in
        if else_body = [] then begin
          let join = fresh_block ctx in
          finish ctx
            (Instr.Br
               { cond = c; ifso = then_block.Func.label; ifnot = join.Func.label });
          start ctx then_block;
          lower_body ctx then_body;
          finish ctx (Instr.Jmp join.Func.label);
          start ctx join
        end
        else begin
          let else_block = fresh_block ctx in
          let join = fresh_block ctx in
          finish ctx
            (Instr.Br
               {
                 cond = c;
                 ifso = then_block.Func.label;
                 ifnot = else_block.Func.label;
               });
          start ctx then_block;
          lower_body ctx then_body;
          finish ctx (Instr.Jmp join.Func.label);
          start ctx else_block;
          lower_body ctx else_body;
          finish ctx (Instr.Jmp join.Func.label);
          start ctx join
        end
      | Ast.While (cond, body) ->
        let header = fresh_block ctx in
        let body_block = fresh_block ctx in
        let exit_block = fresh_block ctx in
        finish ctx (Instr.Jmp header.Func.label);
        start ctx header;
        let c = lower_expr ctx cond in
        finish ctx
          (Instr.Br
             {
               cond = c;
               ifso = body_block.Func.label;
               ifnot = exit_block.Func.label;
             });
        start ctx body_block;
        ctx.loops <- (header.Func.label, exit_block.Func.label) :: ctx.loops;
        lower_body ctx body;
        ctx.loops <- List.tl ctx.loops;
        finish ctx (Instr.Jmp header.Func.label);
        start ctx exit_block
      | Ast.For (init, cond, step, body) ->
        (* continue jumps to the step block, then back to the header. *)
        ctx.frames <- Hashtbl.create 4 :: ctx.frames;
        Option.iter (lower_stmt ctx) init;
        let header = fresh_block ctx in
        let body_block = fresh_block ctx in
        let step_block = fresh_block ctx in
        let exit_block = fresh_block ctx in
        finish ctx (Instr.Jmp header.Func.label);
        start ctx header;
        (match cond with
        | Some cond ->
          let c = lower_expr ctx cond in
          finish ctx
            (Instr.Br
               {
                 cond = c;
                 ifso = body_block.Func.label;
                 ifnot = exit_block.Func.label;
               })
        | None -> finish ctx (Instr.Jmp body_block.Func.label));
        start ctx body_block;
        ctx.loops <- (step_block.Func.label, exit_block.Func.label) :: ctx.loops;
        lower_body ctx body;
        ctx.loops <- List.tl ctx.loops;
        finish ctx (Instr.Jmp step_block.Func.label);
        start ctx step_block;
        Option.iter (lower_stmt ctx) step;
        finish ctx (Instr.Jmp header.Func.label);
        start ctx exit_block;
        ctx.frames <- List.tl ctx.frames
      | Ast.Break -> (
        match ctx.loops with
        | (_, break_target) :: _ -> finish ctx (Instr.Jmp break_target)
        | [] -> invalid_arg "Lower: break outside a loop")
      | Ast.Continue -> (
        match ctx.loops with
        | (continue_target, _) :: _ -> finish ctx (Instr.Jmp continue_target)
        | [] -> invalid_arg "Lower: continue outside a loop")
      | Ast.Return None -> finish ctx (Instr.Ret (Some (Instr.Imm 0L)))
      | Ast.Return (Some e) ->
        let v = lower_expr ctx e in
        finish ctx (Instr.Ret (Some v))
      | Ast.Expr ({ Ast.desc = Ast.Call (callee, args); _ }) ->
        ignore (lower_call ctx ~want_result:false callee args)
      | Ast.Expr e -> ignore (lower_expr ctx e)

  and lower_body ctx body =
    ctx.frames <- Hashtbl.create 8 :: ctx.frames;
    List.iter (lower_stmt ctx) body;
    ctx.frames <- List.tl ctx.frames

  let lower_func ~module_name ~resolve (f : Ast.decl) =
    match f with
    | Ast.Global_decl _ -> assert false
    | Ast.Func_decl { name; params; body; static; pos; end_line } ->
      let linkage = if static then Func.Local else Func.Exported in
      let fname = if static then mangle module_name name else name in
      let func = Func.create ~name:fname ~arity:(List.length params) ~linkage in
      func.Func.src_lines <- max 1 (end_line - pos.Ast.line + 1);
      let frame = Hashtbl.create 8 in
      List.iteri (fun i p -> Hashtbl.replace frame p i) params;
      let ctx =
        { func; resolve; frames = [ frame ]; cur = None; cur_instrs = [];
          loops = [] }
      in
      let entry = fresh_block ctx in
      func.Func.entry <- entry.Func.label;
      start ctx entry;
      List.iter (lower_stmt ctx) body;
      (* Implicit return 0 when control falls off the end. *)
      finish ctx (Instr.Ret (Some (Instr.Imm 0L)));
      func

  let lower_unit (unit_ : Ast.unit_) =
    let module_name = unit_.Ast.module_name in
    let statics = Hashtbl.create 16 in
    List.iter
      (fun decl ->
        match decl with
        | Ast.Global_decl { name; static = true; _ }
        | Ast.Func_decl { name; static = true; _ } ->
          Hashtbl.replace statics name ()
        | Ast.Global_decl _ | Ast.Func_decl _ -> ())
      unit_.Ast.decls;
    let resolve name =
      if Hashtbl.mem statics name then mangle module_name name else name
    in
    let m = Ilmod.create module_name in
    List.iter
      (fun decl ->
        match decl with
        | Ast.Global_decl { extern_ = true; _ } ->
          (* Declaration only; storage lives in the defining module. *)
          ()
        | Ast.Global_decl { name; size; init; static; _ } ->
          ignore
            (Ilmod.add_global m ~name:(resolve name) ~size ~init
               ~exported:(not static) ())
        | Ast.Func_decl _ ->
          Ilmod.add_func m (lower_func ~module_name ~resolve decl))
      unit_.Ast.decls;
    m
end

module Symtab = struct
  module Func = Cmo_il.Func
  module Instr = Cmo_il.Instr
  module Ilmod = Cmo_il.Ilmod
  module Intrinsics = Cmo_il.Intrinsics

  type entry =
    | Func_entry of { module_name : string; arity : int; linkage : Func.linkage }
    | Global_entry of { module_name : string; size : int; exported : bool }

  type error =
    | Duplicate of string * string * string
    | Undefined of string * string

  type t = {
    table : (string, entry) Hashtbl.t;
    mutable order : string list;  (* reverse definition order *)
  }

  let entry_module = function
    | Func_entry { module_name; _ } | Global_entry { module_name; _ } ->
      module_name

  let entry_exported = function
    | Func_entry { linkage = Func.Exported; _ } -> true
    | Func_entry { linkage = Func.Local; _ } -> false
    | Global_entry { exported; _ } -> exported

  let add t errors name entry =
    match Hashtbl.find_opt t.table name with
    | Some prev ->
      errors := Duplicate (name, entry_module prev, entry_module entry) :: !errors
    | None ->
      Hashtbl.replace t.table name entry;
      t.order <- name :: t.order

  let find t ~current_module:_ name = Hashtbl.find_opt t.table name

  let find_exported t name =
    match Hashtbl.find_opt t.table name with
    | Some e when entry_exported e -> Some e
    | Some _ | None -> None

  let defined_names t = List.rev t.order

  (* Names referenced by a function: callees plus global bases. *)
  let referenced_names f =
    let names = ref [] in
    let note n = if not (List.mem n !names) then names := n :: !names in
    List.iter
      (fun b ->
        List.iter
          (fun i ->
            match i with
            | Instr.Call { callee; _ } -> note callee
            | Instr.Load (_, { base; _ }) | Instr.Store ({ base; _ }, _) ->
              note base
            | Instr.Move _ | Instr.Unop _ | Instr.Binop _ | Instr.Probe _ -> ())
          b.Func.instrs)
      f.Func.blocks;
    List.rev !names

  let build modules =
    let t = { table = Hashtbl.create 256; order = [] } in
    let errors = ref [] in
    List.iter
      (fun m ->
        List.iter
          (fun (g : Ilmod.global) ->
            add t errors g.Ilmod.gname
              (Global_entry
                 {
                   module_name = m.Ilmod.mname;
                   size = g.Ilmod.size;
                   exported = g.Ilmod.exported;
                 }))
          m.Ilmod.globals;
        List.iter
          (fun (f : Func.t) ->
            add t errors f.Func.name
              (Func_entry
                 {
                   module_name = m.Ilmod.mname;
                   arity = f.Func.arity;
                   linkage = f.Func.linkage;
                 }))
          m.Ilmod.funcs)
      modules;
    List.iter
      (fun m ->
        List.iter
          (fun f ->
            List.iter
              (fun name ->
                if not (Intrinsics.is_intrinsic name) then
                  match find t ~current_module:m.Ilmod.mname name with
                  | Some _ -> ()
                  | None -> errors := Undefined (m.Ilmod.mname, name) :: !errors)
              (referenced_names f))
          m.Ilmod.funcs)
      modules;
    match !errors with [] -> Ok t | errs -> Error (List.rev errs)

  let pp_error ppf = function
    | Duplicate (name, m1, m2) ->
      Format.fprintf ppf "symbol %s multiply defined (in %s and %s)" name m1 m2
    | Undefined (m, name) ->
      Format.fprintf ppf "module %s references undefined symbol %s" m name
end

module Verify = struct
  module Func = Cmo_il.Func
  module Instr = Cmo_il.Instr
  module Ilmod = Cmo_il.Ilmod
  module Intrinsics = Cmo_il.Intrinsics

  type issue = {
    func : string;
    message : string;
  }

  let check_func ?symtab ~module_name (f : Func.t) =
    let issues = ref [] in
    let report fmt =
      Format.kasprintf (fun message -> issues := { func = f.Func.name; message } :: !issues) fmt
    in
    if f.Func.blocks = [] then report "function has no blocks"
    else begin
      let labels = Hashtbl.create 16 in
      List.iter
        (fun b ->
          if Hashtbl.mem labels b.Func.label then
            report "duplicate block label L%d" b.Func.label
          else Hashtbl.replace labels b.Func.label ();
          if b.Func.label >= f.Func.next_label then
            report "block label L%d exceeds label counter %d" b.Func.label
              f.Func.next_label)
        f.Func.blocks;
      if not (Hashtbl.mem labels f.Func.entry) then
        report "entry label L%d does not exist" f.Func.entry;
      let check_reg r =
        if r < 0 || r >= f.Func.next_reg then
          report "register r%d out of range (next_reg=%d)" r f.Func.next_reg
      in
      let check_name_as_func callee nargs =
        match Intrinsics.arity callee with
        | Some a ->
          if nargs <> a then
            report "intrinsic %s called with %d args, expects %d" callee nargs a
        | None -> (
          match symtab with
          | None -> ()
          | Some st -> (
            match Symtab.find st ~current_module:module_name callee with
            | Some (Symtab.Func_entry { arity; _ }) ->
              if nargs <> arity then
                report "call to %s passes %d args, expects %d" callee nargs arity
            | Some (Symtab.Global_entry _) ->
              report "call target %s is a global, not a function" callee
            | None -> report "call to undefined function %s" callee))
      in
      let check_base base =
        match symtab with
        | None -> ()
        | Some st -> (
          match Symtab.find st ~current_module:module_name base with
          | Some (Symtab.Global_entry _) -> ()
          | Some (Symtab.Func_entry _) ->
            report "address base %s is a function, not a global" base
          | None -> report "reference to undefined global %s" base)
      in
      let sites = Hashtbl.create 16 in
      List.iter
        (fun b ->
          List.iter
            (fun i ->
              Option.iter check_reg (Instr.def i);
              List.iter check_reg (Instr.uses i);
              match i with
              | Instr.Call { callee; args; site; _ } ->
                check_name_as_func callee (List.length args);
                if site < 0 || site >= f.Func.next_site then
                  report "call site s%d exceeds site counter %d" site
                    f.Func.next_site;
                if Hashtbl.mem sites site then
                  report "duplicate call site id s%d" site
                else Hashtbl.replace sites site ()
              | Instr.Load (_, { base; _ }) -> check_base base
              | Instr.Store ({ base; _ }, _) -> check_base base
              | Instr.Move _ | Instr.Unop _ | Instr.Binop _ | Instr.Probe _ -> ())
            b.Func.instrs;
          List.iter check_reg (Instr.term_uses b.Func.term);
          List.iter
            (fun target ->
              if not (Hashtbl.mem labels target) then
                report "branch to missing label L%d from L%d" target b.Func.label)
            (Instr.targets b.Func.term))
        f.Func.blocks
    end;
    List.rev !issues

  let check_module ?symtab (m : Ilmod.t) =
    List.concat_map
      (fun f -> check_func ?symtab ~module_name:m.Ilmod.mname f)
      m.Ilmod.funcs

  let check_program modules =
    match Symtab.build modules with
    | Error errs ->
      List.map
        (fun e ->
          { func = "<symtab>"; message = Format.asprintf "%a" Symtab.pp_error e })
        errs
    | Ok symtab -> List.concat_map (fun m -> check_module ~symtab m) modules

  let pp_issue ppf { func; message } = Format.fprintf ppf "[%s] %s" func message
end
