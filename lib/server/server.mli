(** The build-server daemon ([cmocd]'s engine).

    A long-lived process serving {!Proto} build requests over a
    Unix-domain socket against warm state that one-shot [cmoc] throws
    away after every run: one open {!Cmo_cache.Store} (so an edit
    storm's unchanged modules are served from cache) and one shared
    NAIM repository (so loaders offload into a single long-lived
    pool file), both held by a {!Cmo_driver.Buildsys} session.

    {b Concurrency.}  One thread accepts connections and each
    connection gets a reader thread; build requests pass through
    {!Sched} (admission control + FIFO-with-aging fairness) to a
    fixed pool of builder threads ([builders], i.e. $CMO_DAEMON_JOBS).
    Each in-flight build parallelizes internally on its own
    {!Cmo_driver.Parwork} domain pool per its requested [jobs],
    capped at the host's recommended domain count divided by
    [builders] (at least 1).
    Requests are isolated by the store's snapshot-read/ordered-commit
    transactions; shared structures (store, repository, scheduler)
    are internally synchronized.

    {b Chaos.}  A request carrying a fault plan runs exclusively (the
    plan is process-wide), and the plan is cleared and the store
    reopened from disk afterwards — an injected crash kills that
    request only, and a retry finds the daemon serving and produces
    byte-identical artifacts.

    {b Shutdown} ({!shutdown}, or a {!Proto.Shutdown} request, or
    SIGINT/SIGTERM under {!run}): stop accepting, refuse new builds,
    drain admitted ones, close the session, remove the socket file. *)

type config = {
  socket : string;
      (** Where to listen: a Unix-domain socket path, or
          [tcp:HOST:PORT] for the multi-machine transport (port 0
          binds an ephemeral port — read the actual one back from
          {!address}). *)
  builders : int;  (** Concurrent build requests (>= 1). *)
  queue_max : int;  (** Admission bound; beyond it requests are rejected. *)
  state_dir : string;
      (** Created if missing; holds the warm store and the NAIM
          repository (under [<state_dir>/.cmo-cache]). *)
  cache_capacity : int option;  (** Store live-byte bound override. *)
  trace : string option;
      (** Record the daemon's whole lifetime with {!Cmo_obs.Obs} and
          write a Chrome-trace file here on shutdown.  Per-request
          reports then carry the cumulative counters ([report.obs]),
          which is how the storm bench watches the warm-cache hit
          rate rise. *)
}

val default_config : config
(** Socket ["cmocd.sock"], state dir [".cmocd"], builders and queue
    bound from [$CMO_DAEMON_JOBS] / [$CMO_QUEUE_MAX]. *)

type t

val start : ?handle_signals:bool -> config -> t
(** Bind the socket, open the warm session, spawn the accept and
    builder threads, return immediately.  If a Unix socket path
    exists and a peer answers on it, raises [Unix.Unix_error
    (EADDRINUSE, _, _)] instead of hijacking the live daemon's
    socket; only a stale path (connect refused / gone) is unlinked.
    A [tcp:] socket relies on the kernel's [EADDRINUSE].  With
    [handle_signals] (default [false]), SIGINT/SIGTERM handlers that
    {!shutdown} the daemon are installed {e before} the signals are
    unblocked in the calling thread, so no delivery window is left
    where a signal would kill the process without a drain. *)

val address : t -> string
(** The address actually bound: [config.socket], except that a
    [tcp:HOST:0] request reports the ephemeral port picked — what a
    client should be pointed at. *)

val shutdown : t -> unit
(** Initiate graceful shutdown; idempotent, callable from a signal
    handler or any thread.  Returns without waiting — {!wait}
    observes completion. *)

val wait : t -> unit
(** Block until the daemon has fully shut down (someone must call
    {!shutdown}, or a client must send {!Proto.Shutdown}); then the
    socket file is gone and the warm session closed. *)

val stats : t -> Proto.stats

val stopped : t -> bool
(** Shutdown has been initiated (drain may still be in progress). *)

val run : config -> unit
(** [start ~handle_signals:true] then [wait] — the [cmocd] main
    loop. *)

(** {2 The profile registry} *)

val registry : state_dir:string -> Cmo_profile.Cohort.t
(** The cohort registry a daemon with this state directory serves
    ([<state_dir>/cohorts], created as needed). *)

val serve_cohort :
  ?lock:Mutex.t -> Cmo_profile.Cohort.t -> Proto.request -> Proto.response
(** Answer [Cohort_list], [Cohort_ingest], [Cohort_pull] or
    [Cohort_diff] against a registry; any other request is refused
    with a [Failed] reply.  The daemon holds [lock] around registry
    I/O only (a diff's frontend runs outside it); {!Client.offline}
    calls this in-process, so a daemon and an offline [--state-dir]
    give byte-identical answers.  Bad cohort names and garbage shards
    are [Failed]; wire floats are clamped (NaN or out-of-range percent
    and threshold degrade to the defaults). *)
