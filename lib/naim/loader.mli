(** The NAIM loader: owner and traffic manager of transitory optimizer
    data (paper sections 4.2-4.3).

    After {!register_module}, the loader owns every routine's IR as a
    *pool* that is, at any moment, in one of three states:

    - {b Expanded}: ordinary pointer-rich [Func.t], charged to the
      accountant at its modeled expanded size;
    - {b Compacted}: the relocatable byte form ({!Cmo_il.Ilcodec}),
      charged at its modeled relocatable size
      (the second half of {!Cmo_il.Size.func_charges});
    - {b Offloaded}: stored in the disk {!Repository}, charging
      nothing.

    Clients {!acquire} a routine (pinning it expanded), mutate it,
    {!update} it after any mutation, and {!release} it.  Released
    pools are only *unload pending*: they sit in an LRU cache of
    expanded pools and are actually compacted/offloaded lazily when
    the cache exceeds its budget — the paper's lazy unloader.

    A pool expanded from bytes keeps those bytes (its *retained
    encoding*, charged to [Ir_compacted] at their length) until
    {!update} marks the routine modified.  Compacting a pool that
    still holds them reuses the bytes instead of encoding again, so
    a routine that is only read costs one decode per round trip.

    A pool's expanded and compacted charges are measured together,
    once per mutation: at registration, at {!add_func} and at every
    {!update}.  Compaction and expansion move the recorded charges
    between the accountant's categories without walking the routine
    again.

    Whether eviction compacts, also compacts module symbol tables, or
    offloads to disk depends on the current {!level}, which is derived
    from resident bytes against the configured machine memory by
    staged thresholds (section 4.3: "these thresholds turn on more and
    more of the NAIM functionality"), or forced for experiments.

    Module symbol tables (globals, name tables) are their own pools:
    a module's symbol table is compactable only while none of its
    routines is expanded, and re-expands whenever one is acquired —
    the tree discipline of Figure 3 (children may point up, so a live
    child forces its parent expanded). *)

type level =
  | Off  (** Everything stays expanded. *)
  | Ir_compaction  (** Evicted routine IR is compacted in memory. *)
  | St_compaction  (** Additionally, idle module symbol tables compact. *)
  | Offloading  (** Additionally, evicted pools go to the repository. *)

type config = {
  machine_memory : int;  (** Modeled bytes of physical memory. *)
  ir_threshold : float;
      (** Fraction of [machine_memory] at which IR compaction engages. *)
  st_threshold : float;
  offload_threshold : float;
  cache_fraction : float;
      (** Fraction of [machine_memory] the expanded-pool cache may
          occupy before the unloader starts evicting. *)
  forced_level : level option;
      (** Override dynamic thresholds (used by the Figure 5 sweep). *)
}

val default_config : config
(** 256 MB machine, thresholds at 25% / 45% / 70%, cache at 30%. *)

type stats = {
  acquires : int;
  cache_hits : int;  (** Acquire found the pool expanded. *)
  uncompactions : int;  (** Acquire had to decode from bytes. *)
  repo_loads : int;  (** Acquire had to fetch from disk first. *)
  compactions : int;
  offloads : int;
  symtab_compactions : int;
}

val merge_stats : stats -> stats -> stats
(** Field-wise sum: per-component loaders' counters fold into one. *)

type t

val create : ?repo:Repository.t -> config -> Memstats.t -> t
(** Without [repo], an in-memory repository backs offloading (tests,
    benches). *)

val memstats : t -> Memstats.t

val register_module : t -> Cmo_il.Ilmod.t -> unit
(** Takes ownership of the module's functions (the module's [funcs]
    list is emptied); globals and name table become the module's
    symbol-table pool.  Registration charges expanded sizes. *)

val acquire : t -> string -> Cmo_il.Func.t
(** Pin a routine expanded and return it.  Nested acquires are allowed
    (a pin count is kept).  @raise Not_found for an unknown name. *)

val release : t -> string -> unit
(** Unpin; when the pin count reaches zero the pool becomes unload
    pending and the lazy unloader may evict under memory pressure.
    Costs O(log pools) plus one step per pool evicted or symbol table
    compacted. *)

val update : t -> Cmo_il.Func.t -> unit
(** Record that an expanded routine was mutated: re-measure both of
    its charges, adjust the accountant by the expanded delta and drop
    its retained encoding.  Every mutation of an acquired routine must be followed
    by [update] before the routine is released — a routine compacted
    without it would be stored as its stale retained bytes.  The
    argument must be the exact value returned by {!acquire} (checked
    by name). *)

val add_func : t -> module_name:string -> Cmo_il.Func.t -> unit
(** Register a routine created during optimization (cloning). *)

val remove_func : t -> string -> unit
(** Delete a routine (dead-function elimination); discharges its
    bytes.  @raise Invalid_argument when it is pinned. *)

val remove_funcs : t -> string list -> unit
(** [remove_func] for each name, in one pass over the name lists:
    {!func_names} and {!funcs_of_module} keep the survivors in their
    order.  Nothing is removed when any of the routines is pinned. *)

val expanded_bytes : t -> string -> int
(** The routine's recorded expanded charge ({!Cmo_il.Size.func_expanded_bytes}
    as of registration or the last {!update}), without walking it.
    @raise Not_found for an unknown name. *)

val with_func : t -> string -> (Cmo_il.Func.t -> 'a) -> 'a
(** [acquire] / f / [release], exception-safe. *)

val func_names : t -> string list
(** All registered routines, in deterministic registration order. *)

val arity_of : t -> string -> int option
(** A routine's arity without expanding it — interface data kept in
    the pool header.  [None] when no such routine is registered (a
    dangling reference, as far as this loader knows). *)

val global_size_of : t -> string -> int option
(** Size of a global owned by any registered module, by name. *)

val module_names : t -> string list

val funcs_of_module : t -> string -> string list

val module_of_func : t -> string -> string

val all_globals : t -> Cmo_il.Ilmod.global list
(** Every module's globals, in deterministic module order.  Global
    data is part of the always-available module records (reading it
    does not force routine pools in). *)

val extract_modules : t -> Cmo_il.Ilmod.t list
(** Rebuild complete modules (loading everything expanded); used when
    handing the program over to code generation or tests.  Leaves all
    pools unload-pending, not pinned. *)

val unload_all : t -> unit
(** Hint that nothing is needed soon: evict every unpinned pool as the
    current level allows. *)

val level : t -> level
(** The level the thresholds (or the override) currently dictate. *)

val stats : t -> stats

val close : t -> unit
(** Close (and delete) the backing repository file, if any. *)

val check_index : t -> unit
(** Test-facing invariant check of the lazy unloader's indexes.  It
    recomputes, by full scans over every pool and module, the pending
    byte total, the LRU victim (the pending pool with the oldest
    acquire tick) and the set of idle modules (no expanded routine,
    symbol table not compacted), and compares them with the
    incrementally maintained indexes.  It re-measures every expanded
    routine and compares both sizes with its recorded charges, and
    re-encodes every expanded routine that holds a retained encoding
    and compares the bytes (a mismatch in either means a mutation
    skipped {!update}).  It checks that [Ir_compacted] residency
    equals the compacted pools' charges plus the retained lengths.
    @raise Failure on any mismatch. *)
