(** The profile database.

    Persistent store of execution counts keyed by stable program
    coordinates (function name, block label, edge).  It is the only
    persistent state of the system that does not live in object files
    (paper section 6.1: "our system works with existing processes by
    maintaining all persistent information (save for profile data) in
    object files").

    Counts are floats: merging and scaling (stale-profile decay,
    inline distribution) produce fractional values. *)

type key =
  | Fentry of string  (** Function entry count. *)
  | Block of string * int  (** (function, block label) execution count. *)
  | Edge of string * int * int
      (** (function, from label, to label) traversal count of a
          conditional edge. *)

type t

val create : unit -> t

val add : t -> key -> float -> unit
(** Accumulate into the existing count. *)

val get : t -> key -> float
(** 0 when absent. *)

val mem : t -> key -> bool

val is_empty : t -> bool

val compare_key : key -> key -> int
(** The total order of {!entries}: the same as polymorphic [compare]
    on keys (constructor, then fields left to right). *)

val entries : t -> (key * float) list
(** Deterministically ordered (by {!compare_key}). *)

val fold : (key -> float -> 'a -> 'a) -> t -> 'a -> 'a
(** Every entry, in unspecified order. *)

val merge : into:t -> t -> unit
(** Accumulate every count of the second database into [into]. *)

val merge_weighted : into:t -> weight:float -> t -> unit
(** [merge] with every contributed count scaled by [weight].
    [weight = 0.] is a guaranteed no-op (not even a key is created);
    [weight = 1.] is exactly {!merge}.  Within one call the iteration
    order over the source cannot affect the result (each key occurs
    once per db); across calls float addition does not associate
    exactly, so callers wanting byte-stable results must canonicalize
    the fold order themselves (see [Ingest]). *)

val scale : t -> float -> unit
(** Multiply every count in place. *)

val decay : t -> rate:float -> age:int -> unit
(** Exponential staleness decay: multiply every count by [rate^age].
    [age = 0] is a byte-level identity (no float operation is
    performed at all).  @raise Invalid_argument on negative [age]. *)

val copy : t -> t

val total : t -> float

val encode : t -> string
(** Canonical serialization: entries in sorted key order, counts as
    IEEE-754 bits.  Two databases with bitwise-equal contents encode
    to equal bytes regardless of insertion order. *)

val decode : string -> t
(** @raise Cmo_support.Codec.Reader.Corrupt on malformed input. *)

val save : t -> string -> unit
(** [encode] to a file via an atomic write. *)

val load : string -> t
(** @raise Cmo_support.Codec.Reader.Corrupt on malformed input,
    [Sys_error] if unreadable. *)

val pp_key : Format.formatter -> key -> unit
