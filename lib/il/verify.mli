(** Structural IL verifier.

    Run after the frontend and between optimizer phases (in checked
    builds) to catch malformed IL early — the paper's section 6.3
    stresses how expensive it is to debug optimizer-induced breakage
    after the fact.  All checks are purely structural; semantic
    preservation is checked separately by differential execution. *)

type issue = {
  func : string;
  message : string;
}

val check_func : ?symtab:Symtab.t -> module_name:string -> Func.t -> issue list
(** Checks, per function:
    - the entry label exists and the block list is non-empty;
    - every branch target names an existing block;
    - block labels are unique;
    - every register mentioned is below [next_reg];
    - call-site ids are unique within the function and below
      [next_site];
    - intrinsic calls have the right arity;
    - with [symtab]: callees resolve to functions with matching arity
      and address bases resolve to globals. *)

val check_module : ?symtab:Symtab.t -> Ilmod.t -> issue list

val check_program : ?verified:(Ilmod.t -> bool) -> Ilmod.t list -> issue list
(** Builds the symbol table and checks every module against it; symbol
    table errors are reported as issues on a pseudo-function
    ["<symtab>"].  A module [verified] holds for (default: none) has
    already passed {!check_module} without a symbol table, so it gets
    only the checks that need one — which report what the full check
    would. *)

val pp_issue : Format.formatter -> issue -> unit
