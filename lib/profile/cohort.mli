(** Named profile cohorts: a persistent registry of profile sets.

    A fleet does not have {e one} canonical profile — it has canary vs
    stable cohorts, A/B experiment arms, per-input-class profiles.
    This module keeps a directory of named shard packs (the {!Ingest}
    pack format: append-only CMR1 frames that skip-and-count damage)
    and answers the question that matters operationally: {e do two
    cohorts induce different module selections?}  The plain fleet
    flow is the cohort named {!default}.

    {2 Registry layout}

    Everything lives under one root directory; the directory {e is}
    the registry — there is no central index file to go stale:

    {v
    <root>/<name>.pack   append-only shard pack (Ingest frames)
    v}

    Packs grow through the {!Cmo_support.Fsio} appender, so a torn
    tail degrades to skip-and-count on read.  [gc] compaction writes
    the surviving shards to a temporary pack and renames it over the
    old one, so a crash during compaction leaves either the
    damaged-but-readable original or the clean replacement.

    {2 Canonical pulls}

    [pull] is {!Ingest.ingest} over the pack's decodable shards, so a
    cohort's merged database {!Db.encode}s byte-identically no matter
    what order its shards arrived in, and a daemon-side pull equals a
    local ingest of the same shards, byte for byte. *)

exception Bad_name of string
(** Raised by every operation handed a name that fails {!valid_name};
    cohort names become file names, so they are validated, never
    trusted. *)

val valid_name : string -> bool
(** Non-empty, at most 64 chars, drawn from [A-Za-z0-9_.-], not
    starting with [.] or [-]. *)

type t
(** An open registry rooted at a directory. *)

val open_ : dir:string -> t
(** Create the root directory as needed and open the registry. *)

val dir : t -> string

val default : string
(** ["fleet"]: the cohort [cmoc profile push]/[pull] use when neither
    [--cohort] nor [$CMO_COHORT] names one. *)

type info = {
  ci_name : string;
  ci_shards : int;  (** Decodable shards in the pack. *)
  ci_damaged : int;  (** Corrupt/torn frames skipped by the reader. *)
  ci_bytes : int;  (** Pack size on disk. *)
}

val create : t -> string -> unit
(** Ensure the cohort exists (an empty pack).  Idempotent. *)

val exists : t -> string -> bool

val list : t -> info list
(** Every cohort in the registry, sorted by name. *)

val ingest_into : t -> string -> Ingest.shard list -> int
(** Append shards to the cohort's pack, creating the cohort as
    needed.  Returns the number of decodable shards the pack now
    holds (the [Cohort_stored] acknowledgement surface). *)

val shards : t -> string -> Ingest.shard list * int
(** [(shards, damaged)] from the cohort's pack; a missing cohort is
    [([], 0)].  Damage is skipped and counted, never raised. *)

val pull : t -> policy:Ingest.policy -> string -> Db.t * Ingest.stats
(** Canonical merged database of the cohort's decodable shards under
    the given policy.  Byte-identical to a local {!Ingest.ingest} of
    the same shards. *)

val remove : t -> string -> unit
(** Delete the cohort's pack.  Idempotent. *)

type gc_stats = {
  gc_cohorts : int;  (** Cohorts surviving the sweep. *)
  gc_removed : int;  (** Cohorts dropped (the [drop] list). *)
  gc_kept_shards : int;  (** Decodable shards across survivors. *)
  gc_damage_dropped : int;  (** Corrupt frames compacted away. *)
  gc_bytes_reclaimed : int;  (** Pack bytes freed by compaction. *)
}

val gc : ?drop:string list -> t -> gc_stats
(** Sweep the registry: remove every cohort in [drop], rewrite any
    pack containing damage to just its decodable shards (temp file +
    rename, crash-safe).  Byte-identical pulls before and after:
    compaction only discards frames the reader was already skipping. *)

(** {2 Selection diff}

    The pure engine behind canary alerting: given the weighted hot
    set each cohort induces (see [Cmo_hlo.Selectivity.cohort_hot_set]
    for the computation against a real program), report the symmetric
    difference of the module/function hot sets, the per-name weight
    deltas, and a would-flip verdict. *)

module Diff : sig
  type hot_set = {
    hs_label : string;  (** Cohort name. *)
    hs_modules : (string * float) list;
        (** (module, share of hot weight), share sums to 1 over the
            set (0 when the set is empty), heaviest first. *)
    hs_functions : (string * float) list;
  }

  type delta = {
    d_name : string;
    d_base : float;  (** Share in the base cohort's hot set (0 if out). *)
    d_canary : float;  (** Share in the canary's hot set (0 if out). *)
  }

  type verdict = Flip | No_flip

  type report = {
    r_threshold : float;
    r_base : string;  (** Base hot-set label. *)
    r_canary : string;
    r_mod_in : delta list;
        (** Modules the canary pulls {e into} the hot set, by canary
            share, heaviest first. *)
    r_mod_out : delta list;  (** Modules the canary drops, by base share. *)
    r_fun_in : delta list;
    r_fun_out : delta list;
    r_shifts : delta list;
        (** Modules in both hot sets whose share moved, by absolute
            shift, largest first. *)
    r_max_shift : float;  (** Largest absolute share shift. *)
    r_verdict : verdict;
  }

  val default_threshold : float
  (** 0.02: a module entering or leaving the hot set matters once it
      carries 2% of the hot weight on either side. *)

  val diff : ?threshold:float -> base:hot_set -> hot_set -> report
  (** [diff ~base canary].
      Deterministic in its inputs: equal hot sets yield a [No_flip]
      report that {!encode}s byte-identically across runs.  The
      verdict is [Flip] iff some {e module} enters or leaves the hot
      set carrying at least [threshold] share on whichever side it is
      hot. *)

  val encode : report -> string
  (** Canonical bytes (the wire and on-disk form). *)

  val decode : string -> report
  (** @raise Cmo_support.Codec.Reader.Corrupt on malformed input. *)

  val report_to_json : report -> Cmo_obs.Json.t

  val pp_report : Format.formatter -> report -> unit
  (** Human rendering; the last line is the greppable verdict
      ([cohort-diff: FLIP ...] or [cohort-diff: no-flip ...]). *)
end
