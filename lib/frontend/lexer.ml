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
