(** The high-level optimizer's top-level driver.

    Orchestrates a CMO compilation over a {!Cmo_naim.Loader} holding
    the modules of the CMO set:

    + procedure cloning at hot constant call sites (optional);
    + cross-module inlining in bottom-up call-graph order (optional);
    + interprocedural constant propagation and dead-function removal
      (optional), planned from summaries taken at the end of each
      routine's inline visit ({!Ipa});
    + the intraprocedural phase pipeline per routine, preceded by the
      routine's deferred IPA transform — under fine-grained
      selectivity, only for hot routines; a cold routine is read once
      for its IPA summary, acquired again only if IPA rewrites it,
      and otherwise stays unloaded (paper section 5);
    + a final unload sweep.

    Each stage acquires only the routines it has to, and a routine
    whose visit changed nothing is not marked modified, so the NAIM
    loader reuses its encoding when compacting it.

    The same driver with everything disabled but the phase pipeline is
    the +O2-path optimizer used for non-CMO modules. *)

type phase_cache = {
  pc_find : string -> string option;
  pc_add : string -> string -> unit;
}
(** Access to the per-routine phase tier of the artifact store.  The
    sequential pipeline passes {!store_phase_cache}; parallel
    component workers pass their {!Cmo_cache.Store.txn}'s logged
    find/add so store bytes stay independent of the worker count. *)

val store_phase_cache : Cmo_cache.Store.t -> phase_cache
(** Direct store access (the sequential whole-set path). *)

type options = {
  clone : Clone.config option;
  inline : Inline.config option;
  ipa : bool;
  hot_filter : (string -> bool) option;
      (** Fine-grained selectivity: [Some f] optimizes only routines
          with [f name = true]. *)
  rewrite_limit : int option;
      (** Operation limit over scalar rewrites (bug isolation). *)
  phase_cache : phase_cache option;
      (** Content-addressed cache for per-routine phase results: the
          phase pipeline is purely intraprocedural, so a routine whose
          post-inline/IPA body is unchanged since a previous build is
          fetched instead of re-optimized.  Ignored when
          [rewrite_limit] is set (the budget is shared across
          routines). *)
  check : (phase:string -> Cmo_il.Func.t -> unit) option;
      (** Between-phase verification hook ([Options.check] passes the
          IL verifier here): called on every routine after each
          interprocedural stage ([clone], [inline]; [ipa] checks each
          surviving routine after its transform), after
          each rewriting scalar pass, and on cache-served bodies
          ([phase-cache]).  Should raise to stop compilation. *)
}

val o2_options : options
(** Intraprocedural only: the default (+O2) optimization level. *)

val o4_options : profile:bool -> options
(** Full CMO: cloning (profile mode only), inlining (profile-guided
    or aggressive), IPA. *)

type report = {
  clones : int;
  inline_stats : Inline.stats option;
  ipa_stats : Ipa.stats option;
  funcs_optimized : int;
  funcs_skipped : int;  (** Left unloaded by fine-grained selectivity. *)
  rewrites : int;
}

val merge_reports : report -> report -> report
(** Fold per-component reports into one program report: counters add,
    IPA dead-function lists concatenate in merge order.  Used by the
    parallel pipeline after joining component workers. *)

val run :
  Cmo_naim.Loader.t -> Cmo_il.Callgraph.t -> ?ipa_context:Ipa.context ->
  options -> report
(** [ipa_context] defaults to {!Ipa.whole_program}; partial (selective)
    compilations must describe external callers/stores. *)

val pp_report : Format.formatter -> report -> unit
