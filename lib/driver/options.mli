(** Compilation options: the paper's command-line surface.

    Levels follow the HP-UX convention used throughout the paper:
    - [O1]: optimize only within basic blocks (no global scalar
      optimization, no layout) — the baseline Mcad3 had to use;
    - [O2]: the default — full intraprocedural optimization, strictly
      within routine boundaries;
    - [O4]: cross-module optimization — frontends emit IL object
      files and HLO runs over the whole CMO set at link time.

    Orthogonal flags:
    - [pbo] (+P): use the profile database — block frequencies,
      call-site counts, inline guidance, block positioning, routine
      clustering;
    - [instrument] (+I): insert profile probes and skip optimization
      (the training build);
    - [selectivity]: with [O4]+[pbo], compile only the modules
      containing the top given percent of call sites with CMO
      (section 5); the rest get the [O2]+[pbo] treatment;
    - [tiered]: the paper's multi-layered future work (section 8):
      with selectivity, modules outside the CMO set that the profile
      shows were never executed skip scalar optimization entirely
      (an [O1]-grade compile), leaving three tiers:
      hot -> CMO, warm -> default, cold -> minimal. *)

type level = O1 | O2 | O4

type t = {
  level : level;
  pbo : bool;
  instrument : bool;
  selectivity : float option;  (** Percent of call sites, 0-100. *)
  tiered : bool;  (** Three-layer mode; needs [pbo] and [selectivity]. *)
  machine_memory : int;  (** Modeled bytes for NAIM thresholds. *)
  naim_level : Cmo_naim.Loader.level option;
      (** Force a NAIM level (Figure 5 sweeps); [None] = dynamic
          thresholds. *)
  inline_config : Cmo_hlo.Inline.config option;
      (** Override the level-implied inlining heuristics. *)
  rewrite_limit : int option;  (** Bug isolation (section 6.3). *)
  inline_limit : int option;  (** Bug isolation: max inline operations. *)
  cmo_modules : string list option;
      (** Bug isolation: with [O4], restrict the CMO set to exactly
          these modules (overrides [selectivity]); the rest take the
          default-level path. *)
  jobs : int;
      (** Worker domains for the pipeline's parallel points —
          per-module frontend, per-component link-time HLO,
          per-module codegen (the paper's section-8 parallelization).
          1 = sequential, the default and the oracle; any [jobs]
          produces byte-identical images, objects and cache bytes
          (the determinism suite's headline invariant).  Defaults to
          [$CMO_JOBS] when set, else 1. *)
  check : bool;
      (** Run the between-phase IL verifier ({!Cmo_check.Ilcheck})
          after every transformation of every routine — clone,
          inline, IPA, each scalar pass, cache-served bodies, block
          layout — failing the build with a named
          phase/function/instruction diagnostic on the first broken
          invariant.  Observes only; checked and unchecked builds
          produce identical artifacts.  Defaults to [$CMO_CHECK]
          (any value but empty or [0]) or [cmoc --check]. *)
  trace : string option;
      (** Write a Chrome-trace/Perfetto JSON timeline of the build
          ({!Cmo_obs.Obs}) to this path.  Observational only: traced
          and untraced builds produce byte-identical artifacts, and
          the flag never enters {!cache_fingerprint}.  Defaults to
          [$CMO_TRACE] or [cmoc --trace FILE]. *)
  dist : bool;
      (** WHOPR-style distribution: run link-time CMO partitions in
          isolated [cmoc-worker] processes instead of worker domains,
          talking over CMR1-framed pipes ({!Distwork}).  Partitions
          run [jobs] at a time, or one per live [workers] endpoint
          when there are more endpoints; a partition running on this
          host, in a spawned worker or redone in-process, counts
          against [jobs].  Byte-invisible by construction and by test:
          any worker loss, missing worker binary or wire fault
          degrades that partition to local recompute.  Never enters
          {!cache_fingerprint}.  Defaults to [$CMO_DIST] or
          [cmoc --dist]. *)
  workers : string list;
      (** Remote worker endpoints ([host:port], each a
          [cmoc-worker --listen]) the distributed pool dials before
          spawning local processes, each with one job in flight.  Version-skewed workers are
          refused at handshake and their jobs redone locally; like
          [dist], placement never enters {!cache_fingerprint}.
          Defaults to [$CMO_DIST_WORKERS] (comma-separated) or
          [cmoc --workers]. *)
  dist_timeout : float option;
      (** Read deadline in seconds for every parent-side receive from
          a distributed worker — the build's hang bound ([None] = the
          pool default, 60).  Defaults to [$CMO_DIST_TIMEOUT]. *)
}

(** Process-tree environment defaults, parsed by {!from_env}.  Every
    [CMO_*] knob resolves here — nothing else in [lib/] or [bin/]
    reads the environment — so [cmoc], [cmocd], [cmoc-worker], the
    test helpers and the bench campaigns agree on the parse.  The
    distributed pool re-parses at pool creation, so a process can flip
    its knobs between builds. *)
type env = {
  env_jobs : int;  (** [$CMO_JOBS] when >= 1, else 1. *)
  env_check : bool;  (** [$CMO_CHECK]: any value but unset, [""], ["0"]. *)
  env_trace : string option;  (** [$CMO_TRACE] when non-empty. *)
  env_fuzz_seed : int option;
      (** [$CMO_FUZZ_SEED], else [$QCHECK_SEED] — the shared seed for
          every property-based suite and the fuzz campaign. *)
  env_fault : string option;
      (** [$CMO_FAULT] when non-empty: a {!Cmo_support.Faults} plan
          spec (disk, wire and worker-kill faults) the driver installs
          before building ([cmoc --fault-plan] overrides it). *)
  env_socket : string option;
      (** [$CMO_SOCKET] when non-empty: the Unix-domain socket path
          [cmocd] listens on and [cmoc --remote] connects to. *)
  env_daemon_jobs : int;
      (** [$CMO_DAEMON_JOBS] when >= 1, else 2: how many build
          requests [cmocd] executes concurrently. *)
  env_queue_max : int;
      (** [$CMO_QUEUE_MAX] when >= 1, else 64: the daemon's admission
          bound — requests beyond this many queued are rejected. *)
  env_dist : bool;
      (** [$CMO_DIST]: any value but unset, [""], ["0"] — distribute
          link-time CMO partitions to worker processes. *)
  env_dist_worker : string option;
      (** [$CMO_DIST_WORKER] when non-empty: path to the
          [cmoc_worker] binary; otherwise it is resolved next to the
          running executable (see {!Distwork.resolve_worker}). *)
  env_dist_workers : string list;
      (** [$CMO_DIST_WORKERS]: comma-separated [host:port] endpoints
          of remote [cmoc-worker --listen] processes; empty when
          unset. *)
  env_dist_timeout : float option;
      (** [$CMO_DIST_TIMEOUT] when a positive float: the distributed
          read deadline in seconds (else the pool default, 60). *)
  env_dist_deadline : float option;
      (** [$CMO_DIST_DEADLINE] when a positive float: the per-job
          straggler bound in seconds — a job still unfinished after
          this long is redone locally even while the worker's
          heartbeats prove it alive.  Unset = no straggler redo. *)
  env_dist_expect_fp : string option;
      (** [$CMO_DIST_EXPECT_FP] when non-empty: the fingerprint every
          worker's [Hello] must report (fleet deployments pin it);
          otherwise the parent's own build identity. *)
  env_worker_fp : string option;
      (** [$CMO_WORKER_FP] when non-empty: the fingerprint a worker
          reports in its [Hello] instead of its build identity (the
          version-skew tests' lever). *)
  env_worker_hb : float;
      (** [$CMO_WORKER_HB] when a float >= 0, else 5: a worker's
          heartbeat period in seconds while a job runs (0 disables). *)
  env_worker_slow_s : float;
      (** [$CMO_WORKER_SLOW_S] when a float >= 0, else 0: a worker
          sleeps this long before each job (the straggler tests'
          lever). *)
  env_worker_log : string option;
      (** [$CMO_WORKER_LOG] when non-empty: [cmoc-worker]'s stderr log
          level ([debug] or [info]). *)
  env_cohort : string option;
      (** [$CMO_COHORT] when non-empty: the default cohort name for
          [cmoc profile push/pull --cohort]. *)
  env_flip_threshold : float option;
      (** [$CMO_FLIP_THRESHOLD] when a float in (0, 1]: the default
          would-flip share threshold for [cmoc profile cohort diff]
          (else {!Cmo_profile.Cohort.Diff.default_threshold}). *)
}

val from_env : ?get:(string -> string option) -> unit -> env
(** Parse the environment ([?get] is injectable for tests). *)

val env : env
(** [from_env ()] evaluated at startup; what [base] is built from. *)

val default_jobs : int
(** What [base.jobs] was initialized to: [env.env_jobs]. *)

val default_check : bool
(** What [base.check] was initialized to: [env.env_check]. *)

val o1 : t
val o2 : t
(** No profile. *)

val o2_pbo : t
val o4 : t
(** CMO without profile: the expensive thorough mode. *)

val o4_pbo : t
(** CMO + PBO, full program. *)

val o4_pbo_selective : float -> t
(** CMO + PBO with coarse-grained selectivity at the given percent. *)

val o4_pbo_tiered : float -> t
(** Selective CMO with the three-layer treatment of the remainder. *)

val instrumented : t
(** The +I training build. *)

val to_string : t -> string

val cache_fingerprint : t -> string
(** Canonical rendering of every field that influences generated
    code, for artifact-cache keys.  [machine_memory], [naim_level],
    [jobs], [check], [trace], [dist], [workers] and [dist_timeout]
    are excluded on purpose: they are behaviour-preserving (tested
    invariants), so cached artifacts survive memory-, worker-,
    verifier-, tracing- and distribution-configuration changes. *)

val encode : Cmo_support.Codec.Writer.t -> t -> unit
(** Append the full record (every field, excluded-from-fingerprint
    ones included) to a {!Cmo_support.Codec} writer — the partition
    jobs shipped to [cmoc-worker] processes carry options this way. *)

val decode : Cmo_support.Codec.Reader.t -> t
(** Inverse of {!encode}.
    @raise Cmo_support.Codec.Reader.Corrupt on malformed input. *)
