(** Distributed link-time CMO: the WHOPR-shaped process boundary.

    The pipeline's serial WPA step (partitioning into invalidation
    components, external-context scan, per-partition cache keys) stays
    in {!Pipeline}; this module is everything on the far side of it:

    - {!optimize_subset}, the one definition of "optimize a partition"
      — extracted from the pipeline so the in-process path and the
      worker process run {e the same code} on the same inputs, which
      is what makes distribution byte-invisible by construction;
    - the wire protocol a [cmoc-worker] process speaks over a CMR1
      framed socketpair {e or TCP connection} ({!parent_msg} /
      {!worker_msg} and their {!Cmo_support.Codec} codecs), including
      the phase-cache relay that forwards the worker's per-routine
      find/add traffic into the parent's store transaction {e in
      order}, so the transaction op log — and therefore every store
      byte — matches the in-process run exactly;
    - the parent-side worker pool: remote endpoints
      ([cmoc-worker --listen host:port], dialed round-robin through
      {!Cmo_support.Netio}) alongside spawn-on-demand local
      processes, a mandatory {!worker_msg.Hello} handshake carrying
      the worker's version fingerprint (wire-codec generation +
      binary digest — skewed workers are refused, never mixed into
      artifacts), heartbeat/deadline health tracking ({!worker_msg.Pulse}
      proves a slow worker alive; a job past [$CMO_DIST_DEADLINE] is
      redone locally anyway — straggler redo), a consecutive-loss
      circuit breaker that retires a flaky endpoint, bounded read
      timeouts (the distributed hang bound), and a deterministic
      chaos hook ([$CMO_DIST_CHAOS=kill@K] SIGKILLs the worker at the
      K-th protocol event) for the kill-sweep suite.

    Failure model (the PR-5 taxonomy applied to the wire): any worker
    loss — death, EOF, framing violation, oversized frame, stalled
    read, network partition, version refusal, straggler deadline,
    remote failure report — surfaces as {!Worker_lost}; the caller
    abandons the partition's (uncommitted) transaction and redoes the
    partition locally on a fresh one, reproducing the oracle's op log
    and bytes.  Degradation is never visible in artifacts, only in
    {!lost_total} (and its cause split across {!refused_total},
    {!stragglers_total}, {!retired_total}). *)

module Hlo := Cmo_hlo.Hlo

(** {2 The shared partition optimizer} *)

val optimize_subset :
  ?phase_cache:Hlo.phase_cache ->
  ?naim_repo:Cmo_naim.Repository.t ->
  ?hot_filter:(string -> bool) ->
  ?check_base:(unit -> Cmo_check.Ilcheck.env) ->
  options:Options.t ->
  externally_called:(string -> bool) ->
  externally_stored:(string -> bool) ->
  mem:Cmo_naim.Memstats.t ->
  Cmo_il.Ilmod.t list ->
  Cmo_il.Ilmod.t list * Hlo.report * Cmo_naim.Loader.stats
(** Run link-time CMO over one subset (a whole CMO set or one
    invalidation component): build the callgraph, register the modules
    with a fresh NAIM loader, run HLO with the subset-relative IPA
    context, and extract the optimized modules.  [check_base] supplies
    the outside-modules resolution environment for the between-phase
    verifier; when absent (worker processes cannot reconstruct it) the
    verifier is skipped — safe because checking is observational:
    checked and unchecked builds produce identical artifacts. *)

(** {2 Wire messages}

    Each message is one CMR1 frame ({!Cmo_support.Fsio.write_framed});
    the payload codecs below are exposed for the protocol fuzz suite.
    The conversation opens with a mandatory worker {!Hello} (version
    fingerprint; a skewed worker gets {!Refuse} and is discarded),
    then alternates strictly: the parent sends {!Job}, then answers
    each worker {!Need}/{!Keep} with {!Have}/{!Ack} until {!Done} or
    {!Fail} arrives.  {!Pulse} heartbeats may arrive at any point of
    a job and carry no reply. *)

val wire_version : int
(** The wire-codec generation this binary speaks; bumped whenever any
    payload changes shape.  A {!Hello} reporting a different value is
    version skew and is refused. *)

type hello = {
  h_wire : int;  (** The worker's {!wire_version}. *)
  h_digest : string;  (** The worker binary's content digest. *)
}

type job = {
  job_options : Options.t;
  job_modules : string list;  (** {!Cmo_il.Ilcodec.encode_module} each. *)
  job_called : string list;  (** Externally-called function names. *)
  job_stored : string list;  (** Externally-stored global names. *)
  job_hot : string list option;
      (** Fine-grained selectivity: hot function names, or [None] for
          no filter. *)
  job_phase_cache : bool;
      (** Relay per-routine phase-cache traffic over the wire. *)
}

type mem_summary = {
  ms_resident : int list;
      (** Final residency per {!Cmo_naim.Memstats.all_categories}
          entry, in that order. *)
  ms_peak : int;
  ms_peak_hlo : int;
}

type done_payload = {
  done_modules : string list;
      (** Optimized modules, encoded.  The parent stores these bytes
          verbatim under the partition's cache keys — the worker's
          encoder, not a parent-side re-encode, defines the
          artifact. *)
  done_report : Hlo.report;
  done_lstats : Cmo_naim.Loader.stats;
  done_mem : mem_summary;
}

type parent_msg =
  | Job of job
  | Have of string option  (** Reply to {!worker_msg.Need}. *)
  | Ack  (** Reply to {!worker_msg.Keep}. *)
  | Bye
  | Refuse of string
      (** The worker's {!worker_msg.Hello} failed verification; the
          reason travels so the far side can log it.  The connection
          is closed after this. *)

type worker_msg =
  | Need of string  (** Phase-cache find, by key. *)
  | Keep of string * string  (** Phase-cache add: key, payload. *)
  | Done of done_payload
  | Fail of string
  | Hello of hello  (** First message on every connection. *)
  | Pulse
      (** Heartbeat, sent every [$CMO_WORKER_HB] seconds (default 5)
          while a job runs; proof of life for straggler detection. *)

val encode_parent : parent_msg -> string
val encode_worker : worker_msg -> string

val decode_parent : string -> parent_msg
val decode_worker : string -> worker_msg
(** @raise Cmo_support.Codec.Reader.Corrupt on malformed payloads,
    including trailing bytes. *)

val summary_of_memstats : Cmo_naim.Memstats.t -> mem_summary

val memstats_of_summary : mem_summary -> Cmo_naim.Memstats.t
(** Reconstruct an accountant whose per-category residency and peaks
    equal the worker's, so {!Cmo_naim.Memstats.merge} folds it exactly
    as it would have folded the worker's own. *)

(** {2 The worker side} *)

val worker_main : Unix.file_descr -> Unix.file_descr -> 'a
(** Serve jobs from [in_fd]/[out_fd] — {!worker_msg.Hello} first,
    then the job loop — until {!parent_msg.Bye}, {!parent_msg.Refuse}
    or EOF, then exit 0; exit 2 on a protocol violation.
    [bin/cmoc_worker] calls this on stdin/stdout.  The binary digest
    the {!worker_msg.Hello} reports is hashed once, at start.
    Environment levers: [$CMO_WORKER_FP] overrides the reported binary
    digest (skew tests), [$CMO_WORKER_HB] the heartbeat period in seconds
    (default 5, 0 disables), [$CMO_WORKER_SLOW_S] sleeps that long
    before each job (straggler tests).  Never returns. *)

val worker_listen : ?port_file:string -> string -> int -> 'a
(** [cmoc-worker --listen HOST:PORT]: bind (port 0 picks an ephemeral
    port), print ["cmoc-worker: listening on HOST:PORT"] on stdout
    (and write the bare port to [port_file] when given — the
    race-free way for a harness to learn an ephemeral port), then
    serve each accepted connection in its own thread with the same
    protocol as {!worker_main}.  The binary is hashed once, before the
    bind, and every connection's {!worker_msg.Hello} reuses that
    digest.  Never returns; dismiss it with a signal. *)

val with_pulses : hb:float -> send:(worker_msg -> unit) -> (unit -> 'a) -> 'a
(** [with_pulses ~hb ~send f] runs [f] while a background thread calls
    [send Pulse] every [hb] seconds ([hb <= 0] disables it); the
    worker's heartbeat.  The thread is woken and joined the moment [f]
    returns or raises, so a job's end is never delayed by the next
    pulse.  A raising [send] ends the pulses, not [f].  Exposed for the
    heartbeat tests; workers reach it only through {!worker_main} and
    {!worker_listen}. *)

(** {2 The parent side} *)

type pool

exception Worker_lost
(** The partition's worker is gone (or reported failure): SIGKILLed
    by chaos, dead, stalled past the timeout, past its straggler
    deadline, version-refused, severed by a partition, or speaking
    garbage.  The worker has been reaped (or its endpoint charged a
    loss); the caller must redo the partition locally on a fresh
    transaction. *)

exception Unavailable of string
(** [create_pool] could find neither a worker binary nor any remote
    endpoint. *)

val resolve_worker : unit -> string
(** [$CMO_DIST_WORKER] when set, else [cmoc_worker.exe] next to the
    running executable, else [../bin/cmoc_worker.exe] from there (the
    dune layout seen from test and bench executables).  The result may
    not exist — {!create_pool} checks. *)

val create_pool :
  ?worker:string ->
  ?timeout_s:float ->
  ?deadline_s:float ->
  ?workers:string list ->
  ?chaos:string ->
  unit ->
  pool
(** Prepare a worker pool: no connections yet; each concurrent
    {!run_job} checks out an idle worker, else dials a [workers]
    endpoint (round-robin, skipping breaker-retired ones), else
    spawns a local process — all verified by handshake before their
    first job, all reused across jobs.  [timeout_s] (default
    [$CMO_DIST_TIMEOUT], else 60) bounds every parent-side read — the
    distributed build's hang bound.  [deadline_s] (default
    [$CMO_DIST_DEADLINE], else none) is the straggler bound: a job
    unfinished after this long is redone locally even while
    heartbeats prove its worker alive.  [workers] defaults to
    [$CMO_DIST_WORKERS].  An endpoint is retired for the pool's life
    after 3 consecutive losses (any completed job resets the count)
    or a version refusal.  [chaos] (default [$CMO_DIST_CHAOS])
    accepts [kill@K]: kill the active worker at the K-th protocol
    event (each send and each receive counts), once.
    @raise Unavailable when the worker binary does not exist and no
    endpoint was given. *)

val run_job : pool -> ?phase_cache:Hlo.phase_cache -> job -> done_payload
(** Drive one partition job on a pooled worker, answering its
    phase-cache relay from [phase_cache] in arrival order.
    @raise Worker_lost on any loss or remote failure (see above). *)

val close_pool : pool -> unit
(** Dismiss every worker (Bye + close + waitpid).  Never raises. *)

(** {2 Remote artifact cache}

    The hook {!Pipeline} uses to share module artifacts across
    checkouts through [cmocd] ([Cache_get]/[Cache_put]).  Both
    functions must degrade internally (miss / drop) rather than raise:
    a remote-cache fault must never fail a build. *)

type remote = {
  remote_get : string -> string option;
  remote_put : string -> string -> unit;
}

(** {2 Counters} — process-lifetime, for tests and the bench.  Every
    counter but {!events_total} is also ticked to an Obs counter,
    [dist/jobs], [dist/lost], [dist/refused], [dist/stragglers] and
    [dist/retired], so a traced build reports its own share. *)

val jobs_total : unit -> int
(** Partition jobs completed on worker processes. *)

val lost_total : unit -> int
(** Workers lost (chaos kills included) plus remote failure reports —
    each one a partition degraded to local recompute. *)

val events_total : unit -> int
(** Parent-side protocol events across all pools; a clean run's delta
    sizes the kill-sweep. *)

val refused_total : unit -> int
(** Workers refused at handshake for version skew (wire-codec
    generation or binary-fingerprint mismatch). *)

val stragglers_total : unit -> int
(** Jobs redone locally because they outlived their deadline while
    the worker's heartbeats kept arriving. *)

val retired_total : unit -> int
(** Endpoints retired by the circuit breaker (consecutive losses) or
    by a version refusal. *)
