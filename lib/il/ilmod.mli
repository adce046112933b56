(** An IL module: the unit of separate compilation.

    A module carries its own symbol table (its globals and functions),
    corresponding to the paper's per-module transitory symbol tables.
    Cross-module references are by name and resolved at link or CMO
    time against the program symbol table ({!Symtab}). *)

type global = {
  gname : string;
  size : int;  (** Number of 64-bit cells; scalars have size 1. *)
  init : int64 array;
      (** Initial values; shorter than [size] means remaining cells
          are zero. *)
  exported : bool;
      (** Module-private globals can only be addressed by this
          module's code, which interprocedural analysis exploits. *)
}

type t = {
  mname : string;
  mutable globals : global list;
  mutable funcs : Func.t list;
}

val create : string -> t

val add_global :
  t -> name:string -> size:int -> ?init:int64 array -> exported:bool -> unit -> global

val add_func : t -> Func.t -> unit

val find_func : t -> string -> Func.t option

val src_lines : t -> int
(** Total modeled source lines over the module's functions. *)

val instr_count : t -> int

val pp : Format.formatter -> t -> unit
