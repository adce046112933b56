(** Dominator tree (Cooper–Harvey–Kennedy iterative algorithm).

    Derived data in the paper's sense: computed on demand from the
    CFG, never updated incrementally, discarded freely (section 4.1).
    Reachable labels are numbered by reverse-postorder position and
    the tree is one [int array] over those numbers; a label-indexed
    [int array] maps labels to positions, so a query is two array
    reads plus an index walk. *)

type t

val compute : Cmo_il.Func.t -> t
(** Considers only labels reachable from the entry.  A branch target
    with no block is a reachable node without successors. *)

val rpo : ?index:Cmo_il.Func.index -> Cmo_il.Func.t -> Cmo_il.Instr.label list
(** [reverse_postorder (compute f)] without building the tree: for
    forward dataflow passes that need only the visiting order.  Pass
    the routine's current {!Cmo_il.Func.index} when the caller has
    one. *)

val idom : t -> Cmo_il.Instr.label -> Cmo_il.Instr.label option
(** Immediate dominator; [None] for the entry block or an unreachable
    label. *)

val dominates : t -> Cmo_il.Instr.label -> Cmo_il.Instr.label -> bool
(** [dominates t a b] — every path from entry to [b] passes through
    [a].  Reflexive.  False for unreachable labels. *)

val reverse_postorder : t -> Cmo_il.Instr.label list
(** Reachable labels in reverse postorder (the iteration order of
    forward dataflow). *)

val modeled_bytes : t -> int
(** Modeled footprint for the Derived memory category. *)
