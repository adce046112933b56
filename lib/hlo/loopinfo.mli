(** Natural-loop discovery from back edges.

    A back edge is an edge [t -> h] where [h] dominates [t]; the
    natural loop of that edge is [h] plus every block that reaches
    [t] without passing through [h].  Loops sharing a header are
    merged.  Derived data: recomputed per use, never kept. *)

type loop = {
  header : Cmo_il.Instr.label;
  body : Cmo_il.Instr.label list;
      (** All member labels including the header, deterministic order. *)
  depth : int;  (** 1 = outermost. *)
}

type t

val compute : ?doms:Dominators.t -> Cmo_il.Func.t -> t
(** [doms], when given, must be [Dominators.compute f] for the
    function as it is now; a caller that already holds the tree saves
    recomputing it.  Reachability comes from the tree too: a block
    the entry cannot reach has no back edge. *)

val loops : t -> loop list
(** Outermost first, then by header label. *)

val loop_of : t -> Cmo_il.Instr.label -> loop option
(** The innermost loop containing the label, if any. *)

val depth_of : t -> Cmo_il.Instr.label -> int
(** 0 when outside all loops. *)

val modeled_bytes : t -> int
