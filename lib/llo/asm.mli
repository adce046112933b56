(** Textual assembly for the virtual machine.

    A human-readable, re-parseable rendering of object-file contents:
    what [cmoc dump --what asm] prints and [cmoc assemble] reads back.
    The format is line-oriented:

    {v
    .module m000
    .global state_m000 64 exported
    .init state_m000 3 17        # cell 3 starts at 17
    .func m000_f0 lines=6
        li    r8, 42
        addi  r9, r8, 5
        mul   r9, r9, r4
        bnz   r9, 6
        ld    r3, 2(r2)
        call  m001_f0
        sys   print
        ret
    .end
    v}

    Branch targets are function-relative instruction indices (the
    pre-link form); [call] takes a symbol, [calla] an absolute
    address (post-link).  Comments run from [#] to end of line.
    Printing then parsing is the identity on well-formed object
    contents (round-trip checked by tests). *)

exception Parse_error of int * string
(** (1-based line number, message). *)

val print_module :
  Format.formatter ->
  module_name:string ->
  globals:Cmo_il.Ilmod.global list ->
  Mach.func_code list ->
  unit

val parse_module :
  string -> string * Cmo_il.Ilmod.global list * Mach.func_code list
(** Parse a full module listing back into (module name, globals,
    function code).  @raise Parse_error on malformed input. *)
