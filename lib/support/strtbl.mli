(** Hash tables keyed by strings: [String.equal] instead of the
    polymorphic compare, and a hash computed in OCaml, which on the
    short names a compiler looks up costs less than a call into the
    runtime's generic [Hashtbl.hash].  No caller may depend on the
    order in which a table iterates. *)

include Hashtbl.S with type key = string
