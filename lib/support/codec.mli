(** Compact binary encoding buffers.

    This codec is the substrate of the paper's "relocatable form"
    (section 4.2.1): objects are written into a dense
    address-independent byte stream, with all inter-object references
    expressed as persistent identifiers.  The same byte format is used
    for object-file IL sections and the NAIM disk repository.

    Integers use LEB128-style varints so small values (the common
    case: register numbers, opcode tags, short offsets) occupy one
    byte, which is where the paper's ~2x compaction ratio comes
    from. *)

module Writer : sig
  type t

  val create : unit -> t
  val byte : t -> int -> unit
  val varint : t -> int -> unit
  (** Zig-zag varint: efficient for small magnitudes of either sign. *)

  val uvarint : t -> int -> unit
  (** Unsigned varint; requires a non-negative argument. *)

  val int64 : t -> int64 -> unit
  val string : t -> string -> unit
  (** Length-prefixed string. *)

  val bool : t -> bool -> unit
  val float : t -> float -> unit
  val list : t -> ('a -> unit) -> 'a list -> unit
  (** Length-prefixed list written with the given element writer. *)

  val array : t -> ('a -> unit) -> 'a array -> unit

  val option : t -> ('a -> unit) -> 'a option -> unit
  (** A presence {!bool}, then the value when there is one. *)

  val length : t -> int
  val contents : t -> string
end

module Reader : sig
  type t

  exception Corrupt of string
  (** Raised on malformed input: truncation or an invalid tag. *)

  val of_string : string -> t
  val byte : t -> int
  val varint : t -> int
  val uvarint : t -> int
  val int64 : t -> int64
  val string : t -> string
  val bool : t -> bool
  val float : t -> float
  val list : t -> (t -> 'a) -> 'a list
  val array : t -> (t -> 'a) -> 'a array
  val option : t -> (t -> 'a) -> 'a option

  val seq_length : t -> int
  (** The length prefix {!list} and {!array} read first, for client
      decoders that read the elements themselves.  @raise Corrupt when
      it exceeds the remaining input. *)

  val at_end : t -> bool
  val corrupt : string -> 'a
  (** [corrupt msg] raises {!Corrupt}; for use by client decoders. *)
end
