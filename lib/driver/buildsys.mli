(** A miniature [make]-style build driver over on-disk object files.

    Demonstrates the paper's section 6.1 claim: the CMO framework
    needs no persistent program database — all persistent state except
    profiles lives in ordinary object files, so a timestamp/digest
    build tool can drive it.

    A workspace maps module names to [<name>.o] files under a
    directory.  The objects are only a cache in front of the stage
    chain {!Pipeline.compile} runs ({!Pipeline.objects}): a build
    equals a one-shot [Pipeline.compile] of the same sources and
    options; current objects are just not rebuilt.

    - {b Object kind.}  An object carries IL when the link needs it:
      at [O4] (link-time CMO) and under +P (routine clustering by
      profiled call weights).  Otherwise it carries code and skips
      every stage but the link: make-style reuse.
    - {b Up-to-date key}, recorded in the source-digest field: the
      source's digest for an IL object; for a code object, a
      fingerprint of the source and {!Options.cache_fingerprint}
      (every option that changes generated code).  A level or option
      switch rebuilds code objects; a new profile reuses IL objects.
      An object of the other kind is never current, whatever it
      records.

    Rebuilding over IL objects re-optimizes at link time, the paper's
    trade-off that "a change in one module potentially requires
    recompilation of all modules in the CMO set".  A persistent
    artifact cache (on by default) softens it: link-time CMO results
    are stored content-addressed under [<dir>/.cmo-cache] (two files,
    [index] and [payload] — see {!Cmo_cache.Store}), so a rebuild
    with no effective change skips the optimizer entirely and an
    incremental change re-optimizes only its invalidation closure.
    {!clean} wipes the cache along with the object files. *)

type t

val create :
  ?cache:bool -> ?cache_dir:string -> ?cache_capacity:int -> dir:string ->
  unit -> t
(** The directory must exist and be writable.  [cache] (default
    [true]) enables the link-time artifact cache; [cache_dir]
    overrides its location (default [<dir>/.cmo-cache]) and
    [cache_capacity] its live-byte bound (default 256 MiB, see
    {!Cmo_cache.Store.open_}). *)

val cache_dir : t -> string
(** Where this workspace's artifact cache lives (whether enabled or
    not). *)

type outcome = {
  build : Pipeline.build;
  recompiled : string list;  (** Modules whose object was rebuilt. *)
  reused : string list;  (** Modules whose object was up to date. *)
}

(** {2 Sessions}

    A build is a value: {!open_session} captures the warm state — the
    open artifact store and (optionally) a shared NAIM repository —
    and {!request} runs one build against it.  One-shot {!build}
    is open → request → close; the build server ([cmocd]) keeps one
    session open for its whole lifetime instead, so every request
    after the first sees a warm store, and shares the session's store
    and repository across concurrent in-flight requests (the store's
    operations and transactions are internally synchronized, as is
    the repository). *)

type session

val open_session : ?naim:bool -> t -> session
(** Open the workspace's warm state: the artifact store when the
    workspace has caching enabled, plus — with [naim] (default
    [false]) — a shared on-disk NAIM repository under the cache
    directory that every request's O4 loaders offload to. *)

val session_store : session -> Cmo_cache.Store.t option
val session_repo : session -> Cmo_naim.Repository.t option

val reopen_store : session -> unit
(** Close (best effort) and reopen the session's store, revalidating
    it from disk.  The server calls this after a request ran under a
    crash fault plan: the simulated power cut makes the I/O layer
    inert, so the in-memory store state can be ahead of the bytes
    actually on disk — reopening discards it and recovers exactly as
    a restarted process would. *)

val request :
  ?profile:Cmo_profile.Db.t ->
  ?remote:Distwork.remote ->
  session ->
  Options.t ->
  Pipeline.source list ->
  outcome
(** One build against the session: {!Pipeline.compile} with the
    workspace's objects in front of it, the session's repository, and
    at [O4] its warm store (flushed, not closed, afterwards; below
    [O4] no CMO artifact exists and the report shows no cache).
    [remote] is the remote artifact cache handed to
    {!Pipeline.compile} (no effect without a store).  Concurrent
    requests on one session must not share the workspace directory's
    object files; the server avoids this by compiling in memory via
    {!Pipeline} against {!session_store}/{!session_repo}.
    @raise Pipeline.Compile_error on any failure, duplicate module
    names included.
    @raise Invalid_argument on a closed session. *)

val close_session : session -> unit
(** Flush and close the store and close (and delete) the repository.
    Idempotent. *)

val build :
  ?profile:Cmo_profile.Db.t ->
  ?remote:Distwork.remote ->
  t ->
  Options.t ->
  Pipeline.source list ->
  outcome
(** [open_session] → {!request} → [close_session], the one-shot
    workflow.
    @raise Pipeline.Compile_error on any failure. *)

val clean : t -> unit
(** Remove every object file in the workspace and wipe the artifact
    cache directory. *)
