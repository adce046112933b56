(** Process-wide observability sink: spans, counters and gauges,
    exportable as Chrome-trace/Perfetto JSON and as a compact text
    summary.

    Design constraints (mirroring the [--check] discipline):

    - {b Observational only.}  Nothing recorded here may influence
      compilation.  With tracing off, every entry point is a single
      atomic load followed by a return — no allocation on hot paths.
      Call sites that must build a formatted name or an argument list
      are expected to guard with [enabled ()] themselves.
    - {b Lock-free-cheap per domain.}  Each domain appends events to
      its own buffer (found via [Domain.DLS]); the only global lock is
      taken once per buffer per trace, when the buffer registers
      itself.  Pool workers, domains or systhreads, record into a
      buffer of their own, named with [with_track].
    - {b Deterministic merge.}  Export groups buffers by track name
      ("main" first, then workers in numeric order); buffers sharing a
      name — successive [Parwork] pools reuse "worker-{i}" — are
      concatenated in registration order, which is chronological
      because pools are created and joined sequentially.

    Timestamps are seconds since [start] ([Unix.gettimeofday]); the
    Chrome export converts to microseconds. *)

(** Raw event, exposed so tests can assert on structure without going
    through the JSON round trip.  Within a track, events are
    chronological. *)
type event =
  | Begin of {
      name : string;
      cat : string;
      ts : float;
      args : (string * string) list;
    }
  | End of { ts : float; args : (string * string) list }
  | Counter of { name : string; ts : float; series : (string * float) list }
  | Instant of { name : string; cat : string; ts : float }

(** {2 Lifecycle} *)

val start : unit -> unit
(** Discard any previous trace, restart the clock, enable recording. *)

val stop : unit -> unit
(** Disable recording.  Buffers survive until the next [start], so
    export/summary may be called after [stop]. *)

val enabled : unit -> bool
(** One atomic load; the guard hot call sites use. *)

val with_track : string -> (unit -> 'a) -> 'a
(** [with_track name f] records what the calling thread does during
    [f] on a buffer of its own, on track [name]; outside it, the
    threads of a domain share one buffer on track "main".  A pool
    worker, domain or
    systhread, wraps its life in this, so concurrent workers' spans
    never share a stack.  Cheap and safe with tracing off. *)

(** {2 Recording} *)

val span_begin : ?cat:string -> ?args:(string * string) list -> string -> unit
val span_end : ?args:(string * string) list -> unit -> unit
(** Open/close a span on the calling domain's track.  [span_end]
    without a matching [span_begin] is ignored.  End-time [args]
    (e.g. rewrite counts known only after the work) are merged with
    the begin args by trace viewers. *)

val with_span : ?cat:string -> ?args:(string * string) list -> string ->
  (unit -> 'a) -> 'a
(** [span_begin]/[span_end] around [f], exception-safe.  Checks
    [enabled] before touching anything, but evaluating the name/args
    at the call site may allocate — use only off hot paths. *)

val instant : ?cat:string -> string -> unit
(** Point event (a thin vertical marker in the viewer). *)

val tick : string -> string -> int -> unit
(** [tick name series n] bumps the cumulative counter
    [name]/[series] on this track by [n] and records a sample of all
    series of [name].  Totals are summed across tracks for
    [counter_totals] and the summary. *)

val sample : string -> (string * float) list -> unit
(** Absolute multi-series gauge sample (e.g. the NAIM memory
    timeline: one series per [Memstats] category). *)

(** {2 Inspection and export} *)

val tracks : unit -> (string * event list) list
(** Merged per-track chronological event lists, in export order. *)

val counter_totals : unit -> (string * float) list
(** Final cumulative counter values, ["name/series"] keys, summed
    across tracks, sorted by key. *)

type span_stat = { label : string; spn_count : int; spn_seconds : float }

type summary = {
  track_count : int;
  event_count : int;
  open_spans : int;  (** begins without a matching end at capture *)
  span_stats : span_stat list;
      (** stage spans individually by name, other categories
          aggregated by category; wall-clock inclusive time *)
  counters : (string * float) list;  (** as [counter_totals] *)
}

val summary : unit -> summary
val pp_summary : Format.formatter -> summary -> unit

val to_json : unit -> Json.t
(** Chrome-trace JSON array: thread-name metadata per track, B/E
    duration events, C counter events (counter names from non-main
    tracks are suffixed with the track so per-worker series stay
    distinct in the viewer). *)

val export : unit -> string
(** The trace as a Chrome-trace JSON string.  Callers persist it
    themselves (the driver uses [Fsio.atomic_write]; this module
    sits below the I/O layer and does not write files). *)
