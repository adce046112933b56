(** The compilation pipeline (the paper's Figure 2, end to end), as
    five stages in the shape of GCC's WHOPR (LGEN → WPA → LTRANS):

    - {!frontend}: sources to verified IL modules.
    - {!wpa}: the serial whole-program step.  It annotates the profile,
      runs [O2]'s intraprocedural phases (all modules) or, under
      [O4], picks the CMO set (all modules, or the selectivity-chosen
      subset), takes the modules outside it through the [O2]+P path,
      scans them for the external context (calls and stores into the
      set), partitions the set into invalidation components and
      computes and fetches cache keys.  All of it lands in a {!plan}.
    - {!optimize}: runs the plan's link-time CMO — the whole set, or
      the stale components — registering each subset with a NAIM
      loader and running HLO (cloning/inlining/IPA/phases) in-process,
      on a worker domain or on a [cmoc-worker] process.
    - {!llo}: per-module code generation, with profile-guided block
      positioning under +P, to code objects.
    - {!link}: the image, with profile-guided routine clustering
      under +P.

    [+I] skips [wpa] and [optimize]: probes are inserted and the
    returned manifest ties VM counters to profile-database keys.

    Each stage runs under {!stage}, which opens its [frontend]/[hlo]
    ([wpa] and [optimize] together)/[llo]/[link] trace span and
    returns the cpu and wall seconds the report books for it; one
    {!make_report} builds every report.  {!compile} and
    {!compile_modules} chain the stages over in-memory values;
    {!Buildsys} runs the same stages over on-disk object files. *)

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
          {!par_speedup}).  Zero when {!compile_modules} was given no
          frontend clock. *)
  hlo_wall_seconds : float;
  llo_wall_seconds : float;
  workers_used : int;  (** The [jobs] the build ran with. *)
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

val with_tracing : Options.t -> (unit -> 'a) -> 'a
(** Run [f] under the trace sink when [options.trace] is set: start
    recording, run, write the Chrome-trace file, stop.  No-op without
    [trace].  {!compile} applies it itself; [Buildsys.build] wraps its
    own workflow with it.  A failing build stops the sink without
    writing a file. *)

val frontend : ?jobs:int -> source list -> Cmo_il.Ilmod.t list
(** Compile sources to IL, verifying the result as a program.
    Per-module lowering runs on [jobs] worker domains (default 1);
    results and error choice are independent of [jobs].
    @raise Compile_error on any error. *)

val frontend_one : source -> Cmo_il.Ilmod.t
(** Compile a single module with module-local verification only;
    cross-module references are checked later, at link time — the
    separate-compilation discipline the build system relies on.
    @raise Compile_error on any error. *)

(** {2 Stages} *)

type clock = { cpu : float; wall : float }
(** Seconds a stage took: process cpu time across every domain, and
    wall time. *)

val stage : string -> (unit -> 'a) -> 'a * clock
(** [stage name f] runs [f] inside the [~cat:"stage"] trace span
    [name] and returns its result with the time it took — the one
    source of both the trace's stage spans and the report's stage
    timings. *)

type plan
(** What the serial WPA step decided: the CMO set and its external
    context, the modules outside it (already optimized), the cache
    keys and the artifacts the store already holds, how the rest is
    placed (whole set or components; in-process or on workers), and
    the line counts, selection and cache traffic the report shows. *)

val wpa :
  ?profile:Cmo_profile.Db.t ->
  ?cache:Cmo_cache.Store.t ->
  ?naim_repo:Cmo_naim.Repository.t ->
  ?remote:Distwork.remote ->
  ?closed:bool ->
  mem:Cmo_naim.Memstats.t ->
  Options.t ->
  Cmo_il.Ilmod.t list ->
  plan
(** Annotate, optimize what is not link-time CMO, and plan the rest.
    Takes ownership of [modules].  [closed] (default [true]) says
    [modules] are the whole program; when [false] (an incremental
    build's changed modules) the between-phase verifier skips the
    linkage checks, which need every definition.  The other optional
    arguments are those of {!compile_modules}. *)

val optimize :
  plan ->
  Cmo_il.Ilmod.t list * (Cmo_hlo.Hlo.report * Cmo_naim.Loader.stats) option
(** Run the plan: every module, CMO set first (in set order) then the
    outside modules, with the merged HLO report and loader counters
    when HLO ran. *)

val llo :
  ?closed:bool ->
  mem:Cmo_naim.Memstats.t ->
  Options.t ->
  Cmo_il.Ilmod.t list ->
  Cmo_link.Objfile.t list * Cmo_llo.Llo.stats
(** Code objects (with an empty source digest), one per module in
    order, on [jobs] worker domains; [closed] as for {!wpa}. *)

val link :
  ?cluster:Cmo_il.Ilmod.t list -> Cmo_link.Objfile.t list -> Cmo_link.Image.t
(** Link [objects] in order; with [cluster] (the annotated IL behind
    them) routines are ordered by their profiled call weights.
    @raise Compile_error with the rendered link errors. *)

val make_report :
  ?frontend:clock ->
  ?hlo:clock ->
  ?llo:clock ->
  ?link:clock ->
  ?plan:plan ->
  ?hlo_stats:Cmo_hlo.Hlo.report * Cmo_naim.Loader.stats ->
  mem:Cmo_naim.Memstats.t ->
  lines:int ->
  llo_stats:Cmo_llo.Llo.stats ->
  Options.t ->
  report
(** The report of a build: a missing stage clock books zero seconds,
    a missing plan zero CMO/warm/cold lines and no cache traffic. *)

(** {2 Whole builds} *)

val compile :
  ?profile:Cmo_profile.Db.t ->
  ?cache:Cmo_cache.Store.t ->
  ?naim_repo:Cmo_naim.Repository.t ->
  ?remote:Distwork.remote ->
  Options.t ->
  source list ->
  build

val compile_modules :
  ?profile:Cmo_profile.Db.t ->
  ?cache:Cmo_cache.Store.t ->
  ?naim_repo:Cmo_naim.Repository.t ->
  ?remote:Distwork.remote ->
  ?frontend:clock ->
  Options.t ->
  Cmo_il.Ilmod.t list ->
  build
(** {!wpa}, {!optimize}, {!llo} and {!link} over [modules], which the
    build takes ownership of: profile annotation and optimization
    mutate them.  [frontend] is the clock of the frontend stage that
    produced them, booked in the report (zero when absent).

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
