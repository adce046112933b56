(** The compilation pipeline (the paper's Figure 2, end to end), as
    five stages in the shape of GCC's WHOPR (LGEN → WPA → LTRANS):

    - frontend: sources to verified IL modules ({!frontend}).
    - wpa: the serial whole-program step.  It annotates the profile,
      runs [O2]'s intraprocedural phases (all modules) or, under
      [O4], picks the CMO set (all modules, or the selectivity-chosen
      subset), takes the modules outside it through the [O2]+P path,
      scans them for the external context (calls and stores into the
      set), partitions the set into invalidation components and
      computes and fetches cache keys.
    - optimize: runs the plan's link-time CMO — the whole set, or the
      stale components — registering each subset with a NAIM loader
      and running HLO (cloning/inlining/IPA/phases) in-process, on a
      worker domain or on a [cmoc-worker] process.
    - llo: per-module code generation, with profile-guided block
      positioning under +P, to code objects.
    - link: the image, with profile-guided routine clustering under
      +P ({!link}).

    [+I] skips wpa and optimize: probes are inserted and the returned
    manifest ties VM counters to profile-database keys.

    Every build runs one stage chain: {!compile} (and
    {!compile_modules}, which starts after the frontend).  Each stage
    opens its [frontend]/[hlo] (wpa and optimize together)/[llo]/
    [link] trace span and books its cpu and wall seconds in the
    report.  {!Buildsys} is that same chain with a workspace's object
    files in front of it, as a cache of frontend or code output
    ({!objects}). *)

type source = { name : string; text : string }

type cache_usage = {
  hits : int;  (** Module-level artifacts served from the local store. *)
  misses : int;
      (** Module-level lookups served by neither the local store nor
          the remote cache. *)
  remote_hits : int;
      (** Artifacts fetched from the remote cache ([?remote]) and
          adopted into the local store. *)
  remote_misses : int;
      (** Remote lookups that missed; a failed or disabled remote
          counts here — never as a build error. *)
  cmo_cached : string list;
      (** CMO-set modules whose post-CMO IL came from the store. *)
  cmo_reoptimized : string list;
      (** CMO-set modules whose link-time optimization actually ran
          (the invalidation closure of the changed modules). *)
}
(** Artifact-cache traffic for one build.  Module-level only: the
    store's own {!Cmo_cache.Store.stats} additionally count the
    per-routine phase cache. *)

type report = {
  options : Options.t;
  hlo : Cmo_hlo.Hlo.report option;
  loader_stats : Cmo_naim.Loader.stats option;
  mem_peak : int;  (** Peak modeled bytes, all categories. *)
  mem_peak_hlo : int;  (** Peak excluding LLO (Figure 4's HLO series). *)
  selection : Cmo_hlo.Selectivity.t option;
  llo : Cmo_llo.Llo.stats;
  frontend_seconds : float;
  hlo_seconds : float;
  llo_seconds : float;
  link_seconds : float;
  frontend_wall_seconds : float;
      (** Wall clock for the phases that run on the worker pool; the
          [*_seconds] fields above are process CPU time across every
          domain, so cpu/wall is the realized parallel speedup (see
          {!par_speedup}).  Zero for {!compile_modules}, which has no
          frontend stage. *)
  hlo_wall_seconds : float;
  llo_wall_seconds : float;
  workers_used : int;
      (** The widest pool any stage ran: [jobs], or more when HLO kept
          one partition job in flight per live fleet endpoint. *)
  total_lines : int;
  cmo_lines : int;  (** Source lines in the CMO set. *)
  warm_lines : int;
      (** Lines outside the CMO set compiled at the default level. *)
  cold_lines : int;
      (** Tiered mode only: never-executed lines given the minimal
          (+O1-grade) compile. *)
  cache : cache_usage option;  (** [None] when built without a store. *)
  obs : Cmo_obs.Obs.summary option;
      (** Compact trace summary (event/track counts, per-stage span
          time, final counter values) when the build ran with
          [Options.trace]; [None] otherwise. *)
}

type build = {
  image : Cmo_link.Image.t;
  objects : Cmo_link.Objfile.t list;
      (** The code objects that went into the final link. *)
  report : report;
  manifest : Cmo_profile.Probe.manifest option;  (** +I builds only. *)
}

exception Compile_error of string
(** Frontend, verification or link failure, with rendered details. *)

val phase_cpu_seconds : report -> float
(** Summed cpu seconds of the three parallelizable phases
    (frontend + hlo + llo) — the single definition of that sum. *)

val phase_wall_seconds : report -> float
(** Summed wall seconds of the same three phases. *)

val par_speedup : report -> float
(** {!phase_cpu_seconds} over {!phase_wall_seconds};
    1.0 when either is unmeasured.  On a single hardware thread this
    sits at or slightly below 1 regardless of [workers_used]. *)

val frontend : ?jobs:int -> source list -> Cmo_il.Ilmod.t list
(** Compile sources to IL, verifying the result as a program.
    Per-module lowering runs on [jobs] worker domains (default 1);
    results and error choice are independent of [jobs].
    @raise Compile_error on any error. *)

val frontend_one : source -> Cmo_il.Ilmod.t
(** Compile a single module with module-local verification only;
    cross-module references are checked later, at link time — the
    separate-compilation discipline a build over object files follows.
    @raise Compile_error on any error. *)

val link :
  ?cluster:Cmo_il.Ilmod.t list -> Cmo_link.Objfile.t list -> Cmo_link.Image.t
(** Link [objects] in order (the link stage, and [cmoc link]); with
    [cluster] (the annotated IL behind them) routines are ordered by
    their profiled call weights.
    @raise Compile_error with the rendered link errors. *)

(** {2 Whole builds} *)

type objects = {
  find : il:bool -> source -> Cmo_link.Objfile.t option;
      (** The source's object if it is up to date and of the kind
          asked for: an IL object when [il], else a code object.
          Called once per source, in source order, before any
          lowering. *)
  save : source -> Cmo_link.Objfile.t -> unit;
      (** Called once per source this build lowered, in source
          order, with its object (source digest empty): the IL object
          right after the frontend when [il], else the code object
          after code generation. *)
}
(** A cache of frontend or code output in front of the stage chain —
    {!Buildsys}'s workspace of object files.  The chain asks for IL
    objects when the link needs IL: at [O4] (link-time CMO) and under
    +P (routine clustering by profiled call weights).  Otherwise it
    asks for code objects, which skip every stage but the link. *)

val compile :
  ?profile:Cmo_profile.Db.t ->
  ?cache:Cmo_cache.Store.t ->
  ?naim_repo:Cmo_naim.Repository.t ->
  ?remote:Distwork.remote ->
  ?objects:objects ->
  Options.t ->
  source list ->
  build
(** The whole build: frontend, then {!compile_modules}'s chain, under
    the trace sink when [options.trace] is set (start, run, write the
    Chrome-trace file, stop; a failing build stops the sink without
    writing a file).

    Without [objects] the frontend verifies the sources as one
    program.  With [objects] it verifies each lowered module alone
    and leaves cross-module references to the link; reused code
    objects join the link in source order, the verifier skips
    linkage checks, and the report counts only the lines this build
    compiled.  Duplicate module names are an error either way.
    @raise Compile_error on any failure. *)

val compile_modules :
  ?profile:Cmo_profile.Db.t ->
  ?cache:Cmo_cache.Store.t ->
  ?naim_repo:Cmo_naim.Repository.t ->
  ?remote:Distwork.remote ->
  Options.t ->
  Cmo_il.Ilmod.t list ->
  build
(** wpa, optimize, llo and {!link} over [modules], which the build
    takes ownership of: profile annotation and optimization mutate
    them.  The report books no frontend time.

    With [Options.dist], link-time CMO partitions run in isolated
    [cmoc-worker] processes ({!Distwork}) instead of worker domains;
    any worker loss, wire fault or missing worker binary degrades the
    affected partition (or the whole build) to in-process execution.
    Distributed builds are byte-identical to in-process ones — the
    distribution determinism matrix enforces it.

    With [remote] (requires [cache]), module-artifact lookups that
    miss the local store consult the remote cache, adopting validated
    artifacts locally, and fresh artifacts are published back — the
    cross-checkout sharing path through [cmocd].  The remote must
    degrade internally (both functions return miss / drop on any
    fault); remote traffic happens only on the serial WPA path, so
    local store bytes stay independent of [jobs].

    With [naim_repo], the O4 loaders offload to the given repository
    instead of a private in-memory one — the build server passes its
    long-lived repository here so NAIM state stays warm across
    requests (loaders never close a repository they were given).
    Offloaded pools round-trip byte-identically, so sharing the
    repository does not change artifacts.

    With [cache], the O4 link step becomes incremental: post-CMO
    per-module IL is stored content-addressed, keyed on the module's
    invalidation-closure component (see {!Cmo_cache.Invalidate}), the
    canonical option fingerprint, and the external context visible to
    the component.  When every artifact is current the HLO phase runs
    not at all (the report's [hlo] is [None]); otherwise only the
    invalidation closure of the changed modules is re-optimized —
    falling back to the whole set under profile-guided cloning or the
    bug-isolation limits, whose budgets are program-wide.  Cached or
    not, the resulting image is bit-identical. *)

val run :
  ?input:int64 array -> ?fuel:int -> ?attribute:bool -> build ->
  Cmo_vm.Vm.outcome
(** Execute the built image on the VM.  [attribute] enables
    per-routine cycle attribution (see {!Cmo_vm.Vm.run}). *)

val train :
  ?inputs:int64 array list ->
  source list ->
  Cmo_profile.Db.t
(** Build instrumented (+I), run each training input on the VM, and
    accumulate the profile database — the paper's training loop. *)

val pp_report : Format.formatter -> report -> unit

val report_to_json : report -> Cmo_obs.Json.t
(** Machine-readable report: every numeric field plus the derived
    aggregates ([phase_cpu_seconds], [phase_wall_seconds],
    [par_speedup]) so consumers never re-derive arithmetic. *)
