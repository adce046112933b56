(** The backward bitset dataflow solver shared by HLO's {!Liveness}
    and the register allocator's block liveness.

    Nodes are numbered [0 .. n-1] (the analyses use layout position).
    The solution is the least fixpoint of

    {v out(b) = U { in(s) | s in succs(b) }
    in(b)  = gen(b) U (out(b) - kill(b)) v}

    which is unique, so the answer does not depend on the visiting
    order; nodes are swept in reverse index order, which for a
    layout-ordered CFG converges in few passes. *)

val backward :
  nbits:int ->
  succs:int array array ->
  gen:Bitset.t array ->
  kill:Bitset.t array ->
  Bitset.t array * Bitset.t array
(** [(live_in, live_out)], one set per node.  [gen] and [kill] sets
    have capacity [nbits]; [succs.(b)] may repeat a node. *)
