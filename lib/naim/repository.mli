(** The NAIM disk repository (paper section 4.2).

    An append-only store of compacted object pools.  "The process that
    manages the movement of data in and out of the repository is
    called the loader" — {!Loader} is the only intended client.  The
    offloaded representation is byte-identical to the in-memory
    compacted representation, which is what makes loading fast in the
    paper's comparison with the Convex Application Compiler (no
    translation step, just eager pointer swizzling on decode).

    A repository is backed by a real file ({!create}) or by an
    in-memory buffer ({!in_memory}, for tests); both count traffic.
    The file backing frames each pool with {!Cmo_support.Fsio}'s
    length+CRC record header and verifies it on fetch (through one
    {!Cmo_support.Fsio.reader} kept open until {!close}), so a torn or
    bit-flipped pool surfaces as {!Cmo_support.Fsio.Corrupt_record}
    rather than decoding garbage IL.  Store failures (disk full)
    surface as [Sys_error]; the loader degrades them by keeping the
    pool in memory.

    Operations are serialized by an internal mutex, so one repository
    can back the loaders of several concurrent build requests — the
    build server shares a single warm repository across its whole
    lifetime (loaders created with [?repo] never close it). *)

type t

type handle
(** Stable reference to one stored pool. *)

val create : path:string -> t
(** Creates/truncates the backing file. *)

val in_memory : unit -> t

val store : t -> string -> handle
val fetch : t -> handle -> string
(** @raise Invalid_argument on a foreign or stale handle. *)

val stored_bytes : t -> int
(** Total bytes ever written (the repository is append-only; dead
    pool versions are not reclaimed until {!close}). *)

val stores : t -> int
val fetches : t -> int

val close : t -> unit
(** Closes and removes the backing file, if any. *)
