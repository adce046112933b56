(** Procedure cloning: specialize a callee for constant arguments at
    hot call sites.

    Cloning is HLO's answer for callees too large to inline: a hot
    call site passing immediates gets a private copy of the callee
    with those parameters pinned (entry-block [Move]s that constant
    propagation then folds, typically deleting whole branches).
    Clones are module-local functions named ["callee$cN"].

    Clones are shared: two sites passing the same constants for the
    same parameters retarget to one clone.  Recursive callees are not
    cloned (the clone would still call the original, re-splitting the
    profile for no benefit). *)

type config = {
  hot_count : float;  (** Minimum call-site count to consider. *)
  min_callee_size : int;
      (** Below this the inliner will handle the site anyway. *)
  max_callee_size : int;
  max_clones : int;  (** Program-wide budget. *)
}

val default_config : config

val run : Cmo_naim.Loader.t -> Cmo_il.Callgraph.t -> config -> int
(** Returns the number of clones created.  A caller is acquired only
    when one of its call-graph edges passes the site test that needs
    no body (count, self call, callee size, cycle membership), so a
    program without candidates costs no loader traffic.  Call-graph sizes and cycle
    information are read from [cg] (built before this pass); new
    clones are registered with the loader but not added to [cg] —
    downstream passes treat them as ordinary functions discovered via
    the loader. *)
