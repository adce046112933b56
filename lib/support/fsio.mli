(** The single chokepoint for file I/O, with deterministic fault
    injection.

    Every artifact family the system persists — the CMO cache store,
    the NAIM disk repository, the profile database, trace exports,
    object files — performs its reads and writes through this module,
    which gives the whole toolchain one place to implement the
    durability discipline (temp + fsync + rename for whole files,
    length+CRC framing for appended records, bounded retries for
    transient errors) and one place to inject faults for testing.

    {2 Error model}

    Real failures and injected failures surface identically, as
    [Sys_error] — consumers that degrade gracefully under injection
    therefore degrade identically under a real full disk.  Two
    conditions get their own exceptions:

    - {!Corrupt_record}: a framed record whose magic, length or CRC
      does not check out.  The store quarantines these; they are data
      corruption, not I/O failure.
    - {!Crash}: a simulated power cut.  Raised at the planned
      operation after writing a seeded prefix of the data (the torn
      state a kill would leave), and the process-wide I/O layer then
      goes inert: subsequent writes silently do nothing (so
      unwind-time finalizers cannot touch the disk a "dead" process
      could not have touched) and subsequent reads re-raise.  [Crash]
      is never raised unless a plan with a [crash@k] directive is
      installed; production code must let it propagate.

    {2 Fault injection}

    This module is the [fs] site of the {!Faults} plan: each durable
    operation (a read, write, fsync, rename, append, ...) is numbered
    on the fs clock, retries of one logical operation do not
    re-count, and the plan's [crash],
    [enospc], [eio], [short] and [transient] faults land here (grammar
    and semantics in {!Faults}).  With no plan installed every entry
    point's injection check is a single atomic load — the hot path
    costs nothing else. *)

exception Crash
(** Simulated power cut (see above).  Only a fault plan raises this. *)

val is_crash : exn -> bool
(** [Crash], possibly wrapped in [Fun.Finally_raised]: a planned crash
    can fire inside an unwind-time finalizer, where [Fun.protect]
    wraps it; either way it is the simulated power cut. *)

exception Corrupt_record of { path : string; offset : int; reason : string }
(** A framed record failed its magic, length or CRC check. *)

(** {2 Whole files} *)

val read_file : string -> string
(** The file's entire contents.  [Sys_error] on any failure. *)

val atomic_write : string -> string -> unit
(** Write via [path ^ ".tmp"], fsync, rename — after a crash at any
    point the target holds either the old bytes or the new bytes,
    never a mixture.  Three injection sites: write, fsync, rename. *)

val remove : string -> unit
(** [Sys_error] when missing, like [Sys.remove]. *)

val rename : string -> string -> unit
(** [rename src dst], one injection site; [Sys_error] on failure.
    {!atomic_write} covers the common whole-file case — this is for
    owners that stream a replacement file themselves (compaction). *)

val mkdirs : string -> unit
(** Create the directory and its missing parents; existing
    directories are fine. *)

val truncate : string -> int -> unit

(** {2 Framed record streams}

    An append-only file of records, each framed as magic (4 bytes),
    payload length (4 bytes LE), CRC-32 of the payload (4 bytes LE),
    then the payload.  A torn append is structurally detectable
    ({!valid_prefix}) and a corrupted payload is content-detectable
    (the CRC), so a reader can always resynchronize: truncate at the
    first structurally bad record, quarantine records whose CRC
    fails. *)

val frame_overhead : int
(** Bytes of framing per record (12). *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3) of a string; exposed for tests and for index
    entries that want to remember a record's expected checksum. *)

val frame : string -> string
(** [frame payload] is the payload wrapped in the CMR1 framing (magic,
    LE length, LE CRC-32, payload) — the exact bytes {!append_record}
    writes.  Pure; no injection site.  The build-server wire protocol
    frames its messages with this. *)

type scan =
  | Frame of { payload : string; next : int }
      (** A whole, CRC-valid record starts at [pos]; [next] is the
          offset just past it. *)
  | Need of int  (** More bytes needed — at least this many. *)
  | Bad of string  (** Bad magic, negative length or CRC mismatch. *)

val scan_frame : string -> pos:int -> scan
(** Examine the framed record starting at [pos] in an in-memory byte
    stream.  Unlike {!valid_prefix} this also verifies the CRC —
    stream consumers (the wire protocol) treat a framing violation as
    fatal for the connection rather than resynchronizing past it. *)

val valid_prefix_string : string -> int
(** In-memory analogue of {!valid_prefix}: the end offset of the
    longest prefix of whole, CRC-valid records. *)

val write_all : Unix.file_descr -> string -> unit
(** Write every byte of a string to a pipe or socket (blocking,
    restarts on EINTR); outside the fault-injection chokepoint, like
    {!write_framed}, which is [write_all fd (frame payload)]. *)

val write_framed : Unix.file_descr -> string -> unit
(** Write one framed message to a pipe or socket (blocking, restarts
    on EINTR).  {b Deliberately outside the fault-injection
    chokepoint}: the wire is not a durability surface, and a fault
    plan aimed at a build must not corrupt the transport carrying it.
    Raises [Unix.Unix_error] when the peer is gone (EPIPE with SIGPIPE
    ignored). *)

val read_framed :
  ?timeout_s:float ->
  ?max_payload:int ->
  Unix.file_descr ->
  (string, [ `Eof | `Bad of string | `Timeout ]) result
(** Read one framed message.  [`Eof] is a clean close on a message
    boundary; a close inside a frame, a framing violation or an
    oversized length (beyond [max_payload], default 64 MiB) is
    [`Bad] — stream consumers treat it as fatal for the connection
    (there is no trustworthy next-frame offset).  With [timeout_s],
    [`Timeout] when the peer stalls that long mid-message — the
    distributed build's hang bound.  Raw fd I/O, never
    fault-injected, like {!write_framed}. *)

type appender
(** An open append channel to a record stream.  Appends are flushed
    per record; {!close_append} optionally fsyncs. *)

val open_append : ?trunc:bool -> string -> appender
(** Open (creating as needed) for appending; [trunc] starts the file
    over.  The initial position is the current end of file. *)

val append_pos : appender -> int
(** Current end-of-file position (the offset the next record will
    start at). *)

val append_record : appender -> string -> int
(** Append one framed record and flush; returns the record's start
    offset (pass to {!read_record} with the payload's length).  On a
    short write the file is repaired back to the record boundary
    (best effort) before [Sys_error] is raised, so one failed append
    does not poison the records after it. *)

val close_append : ?fsync:bool -> appender -> unit
(** Never raises except {!Crash}-inertly (a crashed plan makes it a
    no-op). *)

type reader
(** A read handle kept open on a record stream, for owners that read
    many records of one file (the artifact store, the NAIM
    repository).  Appends through an {!appender} are flushed per
    record, so a reader sees them.  An owner that replaces or removes
    the file (a compaction rename, a clear) must {!close_reader} it;
    the next read then opens the new file. *)

val reader : string -> reader
(** A reader on [path].  Opens nothing yet: the first {!read_at} opens
    the file ([O_CLOEXEC]) inside its own fault-plane operation. *)

val read_at : ?expect_crc:int32 -> reader -> offset:int -> length:int -> string
(** Read and verify the record at [offset] whose payload is [length]
    bytes.  One [fs] operation (with its retries): an [fstat], a seek
    and one read of frame and payload.  Raises {!Corrupt_record} when
    the record lies beyond the file or the magic, stored length,
    stored CRC, computed CRC or (when given) [expect_crc] disagree;
    [Sys_error] on I/O failure, after which the reader reopens on its
    next read. *)

val close_reader : reader -> unit
(** Close the descriptor, if open; the reader stays usable and
    reopens on its next read.  Never raises. *)

val read_record : ?expect_crc:int32 -> string -> offset:int -> length:int -> string
(** {!read_at} through a reader opened and closed for this one read. *)

val read_span : string -> offset:int -> length:int -> string
(** Best-effort raw read of up to [length] bytes at [offset] (short
    when the file ends sooner); for quarantining damaged records.
    [Sys_error] on I/O failure. *)

val valid_prefix : string -> int * int
(** [(valid_end, size)]: walk the record structure from offset 0 and
    return the end of the last structurally whole record along with
    the physical file size; [valid_end < size] means a torn tail that
    the owner should {!truncate} away.  A missing file is [(0, 0)];
    an unreadable one degrades to [(0, size_if_known)]. *)
