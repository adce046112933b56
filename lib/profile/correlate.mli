(** Correlation of profile data with current program structures.

    The paper (section 3): "The compiler correlates profile
    information from the database with current program structures, and
    uses the data to improve various heuristics."  Correlation is
    name-and-label based: the frontend is deterministic, so unchanged
    source produces identical block labels and the counts attach
    exactly; changed functions simply match fewer (or no) keys and are
    treated as cold — the graceful degradation under stale profiles
    discussed in section 6.2.

    Annotation writes [Func.block.freq] (block execution counts) and
    [Instr.call.call_count] (the count of the containing block). *)

type stats = {
  functions : int;
  functions_with_profile : int;
      (** Functions where at least one block key matched. *)
  blocks : int;
  blocks_matched : int;  (** Blocks whose key was present in the db. *)
  total_count : float;  (** Sum of all annotated block counts. *)
  unmatched_keys : int;
      (** Db keys that matched nothing in the current program — the
          profile weight silently ignored under source drift.  Also
          ticked to the [correlate/unmatched_keys] Obs counter. *)
  unmatched_weight : float;  (** Summed counts of those keys. *)
}

val annotate : Db.t -> Cmo_il.Ilmod.t list -> stats
(** Annotate in place. Probe instructions, if present, are ignored. *)

val clear : Cmo_il.Ilmod.t list -> unit
(** Reset all annotations to 0 (an unprofiled compilation). *)

val pp_stats : Format.formatter -> stats -> unit
