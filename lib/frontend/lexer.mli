(** Hand-written lexer for MiniC.

    A unit is lexed whole, before parsing, so a lexical error anywhere
    wins over a parse error.  The tokens go into a dense buffer: a
    kind per token, with side arrays for the position and the payload
    (an identifier's text, a literal's value).  Nothing is allocated
    per token but the text of each distinct identifier, once per unit,
    and the array growth. *)

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

type t
(** A lexed unit: tokens [0 .. length - 1], the last one [EOF]. *)

exception Lex_error of string * Ast.pos

val tokenize : string -> t
(** Tokenize a whole compilation unit.  Comments are [//] to end of
    line.  @raise Lex_error on an illegal character or malformed
    number. *)

val release : t -> unit
(** Hand a buffer back for the next {!tokenize} to reuse.  The caller
    must not read it afterwards; strings {!ident} returned stay
    valid. *)

val length : t -> int

val kind : t -> int -> kind

val line : t -> int -> int

val pos : t -> int -> Ast.pos
(** A fresh record of {!line} and {!col}. *)

val ident : t -> int -> string
(** The text of an [IDENT] token.  Equal identifiers of one unit share
    one string. *)

val int : t -> int -> int64
(** The value of an [INT] token. *)

val kind_name : kind -> string
(** Human-readable description of a token kind, for parse errors. *)

val describe : t -> int -> string
(** {!kind_name}, with the payload of an [INT] or [IDENT] token. *)
