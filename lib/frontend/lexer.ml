type kind =
  | INT
  | IDENT
  | KW_FUNC | KW_GLOBAL | KW_STATIC | KW_EXTERN | KW_VAR | KW_IF | KW_ELSE
  | KW_WHILE | KW_FOR | KW_BREAK | KW_CONTINUE | KW_RETURN
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | COMMA | SEMI | ASSIGN
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | AMP | PIPE | CARET | SHL | SHR
  | EQ | NE | LT | LE | GT | GE
  | AMPAMP | PIPEPIPE | BANG
  | EOF

exception Lex_error of string * Ast.pos

(* The buffer keeps the unit's identifier table with it: an
   open-addressing table probed with the source text in place, so a
   repeated identifier costs a hash and a compare, and only a new one
   allocates its string.  The keywords are its first entries, so they
   are recognized by the same probe. *)
type t = {
  mutable n : int;
  mutable kinds : kind array;
  mutable lines : int array;
  mutable cols : int array;
  mutable payload : int array;
      (* IDENT: index into [names]; INT: the value, or [-1 - i] for
         [wide.(i)], a literal of more than 18 digits *)
  mutable names : string array;
  mutable count : int;  (* names in use *)
  mutable slots : int array;  (* 0: empty; otherwise 1 + name index *)
  mutable wide : int64 array;
}

let length t = t.n

let kind t i = t.kinds.(i)

let line t i = t.lines.(i)

let pos t i : Ast.pos = { Ast.line = t.lines.(i); col = t.cols.(i) }

let ident t i = t.names.(t.payload.(i))

(* The boxes of the small literals, shared by every unit. *)
let small_ints = Array.init 256 Int64.of_int

let int t i =
  let p = t.payload.(i) in
  if p >= 0 then if p < 256 then small_ints.(p) else Int64.of_int p else t.wide.(-1 - p)

(* ---------- identifier interning ---------- *)

let keywords =
  [|
    ("func", KW_FUNC); ("global", KW_GLOBAL); ("static", KW_STATIC);
    ("extern", KW_EXTERN); ("var", KW_VAR); ("if", KW_IF); ("else", KW_ELSE);
    ("while", KW_WHILE); ("for", KW_FOR); ("break", KW_BREAK);
    ("continue", KW_CONTINUE); ("return", KW_RETURN);
  |]

let hash_step h ch = (h * 31) + Char.code ch

let hash_string s =
  let h = ref 0 in
  String.iter (fun ch -> h := hash_step !h ch) s;
  !h

let rec same_text src start len name k =
  k = len
  || String.unsafe_get src (start + k) = String.unsafe_get name k
     && same_text src start len name (k + 1)

let place slots name_index h =
  let mask = Array.length slots - 1 in
  let rec go i =
    if Array.unsafe_get slots i = 0 then Array.unsafe_set slots i (name_index + 1)
    else go ((i + 1) land mask)
  in
  go (h land mask)

let add_name t name =
  let id = t.count in
  if id = Array.length t.names then begin
    let names = Array.make (2 * id) "" in
    Array.blit t.names 0 names 0 id;
    t.names <- names
  end;
  t.names.(id) <- name;
  t.count <- id + 1;
  id

(* Keep the table at most half full. *)
let grow_slots t =
  let slots = Array.make (2 * Array.length t.slots) 0 in
  for id = 0 to t.count - 1 do
    place slots id (hash_string t.names.(id))
  done;
  t.slots <- slots

(* The index of the name [src.[start .. start + len - 1]]. *)
let intern t src start len =
  let h = ref 0 in
  for k = start to start + len - 1 do
    h := hash_step !h (String.unsafe_get src k)
  done;
  let h = !h in
  let mask = Array.length t.slots - 1 in
  let rec probe i =
    let s = Array.unsafe_get t.slots i in
    if s = 0 then begin
      let id = add_name t (String.sub src start len) in
      Array.unsafe_set t.slots i (id + 1);
      if 2 * t.count > mask then grow_slots t;
      id
    end
    else
      let name = Array.unsafe_get t.names (s - 1) in
      if String.length name = len && same_text src start len name 0 then s - 1
      else probe ((i + 1) land mask)
  in
  probe (h land mask)

(* ---------- buffers ---------- *)

(* One spare buffer, taken and put back with [Atomic.exchange]: the
   parser hands its buffer back when done, so a sequence of units
   reuses one set of arrays instead of allocating them per unit (in
   the major heap, past a few hundred tokens, where each allocation
   brings a collection forward).  Concurrent lexers that find no spare
   allocate their own. *)
let spare : t option Atomic.t = Atomic.make None

let release t = ignore (Atomic.exchange spare (Some t))

let buffer ~cap =
  match Atomic.exchange spare None with
  | Some t ->
    t.n <- 0;
    t.count <- 0;
    Array.fill t.slots 0 (Array.length t.slots) 0;
    t.wide <- [||];
    t
  | None ->
    {
      n = 0;
      kinds = Array.make cap EOF;
      lines = Array.make cap 0;
      cols = Array.make cap 0;
      payload = Array.make cap 0;
      names = Array.make 64 "";
      count = 0;
      slots = Array.make 256 0;
      wide = [||];
    }

(* ---------- the scanner ---------- *)

let grow t =
  let cap = 2 * Array.length t.kinds in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.kinds <- extend t.kinds EOF;
  t.lines <- extend t.lines 0;
  t.cols <- extend t.cols 0;
  t.payload <- extend t.payload 0

let push t kind line col payload =
  if t.n = Array.length t.kinds then grow t;
  let k = t.n in
  Array.unsafe_set t.kinds k kind;
  Array.unsafe_set t.lines k line;
  Array.unsafe_set t.cols k col;
  Array.unsafe_set t.payload k payload;
  t.n <- k + 1

let is_digit ch = ch >= '0' && ch <= '9'

let is_ident_char ch =
  (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || ch = '_' || is_digit ch || ch = ':'

(* The end of the digits from [i]. *)
let rec digits_end src len i =
  if i < len && is_digit (String.unsafe_get src i) then digits_end src len (i + 1) else i

(* Up to 18 decimal digits always fit an OCaml int, so they are read
   in place; a longer literal goes through [Int64.of_string_opt], which
   decides whether it is malformed.  Returns the offset after it. *)
let lex_number t src start line col =
  let stop = digits_end src (String.length src) start in
  if stop - start <= 18 then begin
    let v = ref 0 in
    for k = start to stop - 1 do
      v := (!v * 10) + (Char.code (String.unsafe_get src k) - Char.code '0')
    done;
    push t INT line col !v
  end
  else begin
    let text = String.sub src start (stop - start) in
    match Int64.of_string_opt text with
    | Some v ->
      t.wide <- Array.append t.wide [| v |];
      push t INT line col (-Array.length t.wide)
    | None ->
      raise (Lex_error (Printf.sprintf "malformed number %S" text, { Ast.line; col }))
  end;
  stop

(* The end of the identifier characters from [i]. *)
let rec ident_end src len i =
  if i < len && is_ident_char (String.unsafe_get src i) then ident_end src len (i + 1) else i

(* An identifier or keyword from [start]; returns the offset after
   it. *)
let lex_ident t src start line col =
  let stop = ident_end src (String.length src) (start + 1) in
  let id = intern t src start (stop - start) in
  if id < Array.length keywords then push t (snd keywords.(id)) line col 0
  else push t IDENT line col id;
  stop

(* The end of a comment: its newline, or the end of the source. *)
let rec comment_end src len i =
  if i < len && String.unsafe_get src i <> '\n' then comment_end src len (i + 1) else i

(* The whole scanner state is in arguments: [i] the offset, [line] its
   line and [bol] the offset that line begins at.  Tokens never span a
   line. *)
let rec scan t src i line bol =
  let len = String.length src in
  if i >= len then push t EOF line (i - bol + 1) 0
  else begin
    let col = i - bol + 1 in
    match String.unsafe_get src i with
    | ' ' | '\t' | '\r' -> scan t src (i + 1) line bol
    | '\n' -> scan t src (i + 1) (line + 1) (i + 1)
    | '/' when i + 1 < len && String.unsafe_get src (i + 1) = '/' ->
      (* The newline that ends the comment is scanned as a blank. *)
      scan t src (comment_end src len i) line bol
    | '0' .. '9' -> scan t src (lex_number t src i line col) line bol
    | 'a' .. 'z' | 'A' .. 'Z' | '_' -> scan t src (lex_ident t src i line col) line bol
    | '(' -> single t src i line bol LPAREN
    | ')' -> single t src i line bol RPAREN
    | '{' -> single t src i line bol LBRACE
    | '}' -> single t src i line bol RBRACE
    | '[' -> single t src i line bol LBRACKET
    | ']' -> single t src i line bol RBRACKET
    | ',' -> single t src i line bol COMMA
    | ';' -> single t src i line bol SEMI
    | '+' -> single t src i line bol PLUS
    | '-' -> single t src i line bol MINUS
    | '*' -> single t src i line bol STAR
    | '/' -> single t src i line bol SLASH
    | '%' -> single t src i line bol PERCENT
    | '^' -> single t src i line bol CARET
    | '&' -> pair t src i line bol '&' AMPAMP AMP
    | '|' -> pair t src i line bol '|' PIPEPIPE PIPE
    | '=' -> pair t src i line bol '=' EQ ASSIGN
    | '!' -> pair t src i line bol '=' NE BANG
    | '<' ->
      if i + 1 < len && String.unsafe_get src (i + 1) = '<' then pair t src i line bol '<' SHL LT
      else pair t src i line bol '=' LE LT
    | '>' ->
      if i + 1 < len && String.unsafe_get src (i + 1) = '>' then pair t src i line bol '>' SHR GT
      else pair t src i line bol '=' GE GT
    | ch -> raise (Lex_error (Printf.sprintf "illegal character %C" ch, { Ast.line; col }))
  end

and single t src i line bol kind =
  push t kind line (i - bol + 1) 0;
  scan t src (i + 1) line bol

(* An operator of one character, or of two when [second] follows. *)
and pair t src i line bol second two one =
  if i + 1 < String.length src && String.unsafe_get src (i + 1) = second then begin
    push t two line (i - bol + 1) 0;
    scan t src (i + 2) line bol
  end
  else single t src i line bol one

let tokenize src =
  (* About two tokens per five bytes of source; the arrays double when
     that is short. *)
  let out = buffer ~cap:((String.length src / 2) + 16) in
  Array.iter (fun (word, _) -> place out.slots (add_name out word) (hash_string word)) keywords;
  scan out src 0 1 0;
  out

let kind_name = function
  | INT -> "integer"
  | IDENT -> "identifier"
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

let describe t i =
  match kind t i with
  | INT -> Printf.sprintf "integer %Ld" (int t i)
  | IDENT -> Printf.sprintf "identifier %s" (ident t i)
  | k -> kind_name k
