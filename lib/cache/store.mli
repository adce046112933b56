(** Persistent content-addressed artifact store.

    Link-time CMO results are cached on disk under keys produced by
    {!Cmo_support.Fingerprint.of_strings}.  A store directory holds
    two files:

    - [index] — {!Cmo_support.Codec}-framed: magic, the persisted
      hit/miss/store/eviction counters, the LRU clock, and one
      (key, offset, length, crc, last-use) record per live artifact;
    - [payload] — the artifact bytes, append-only, each artifact
      wrapped in a {!Cmo_support.Fsio} length+CRC record frame;
    - [quarantine/] — raw bytes of records whose CRC failed,
      preserved for post-mortems (created on demand).

    The store is capacity-bounded: when live bytes exceed the
    capacity, least-recently-used artifacts are evicted (their index
    records dropped).  Dead payload bytes — from eviction and from
    replaced keys — are reclaimed by compaction once they outweigh
    the live bytes.

    Robustness over cleverness: a missing, truncated or corrupt index
    simply reads as an empty store (every lookup misses and the next
    compaction reclaims the orphaned payload), never as an error.
    The index is written atomically (temp file + fsync + rename) on
    {!flush}/{!close}.  Payload reads go through one
    {!Cmo_support.Fsio.reader} kept open for the store's lifetime and
    reopened after compaction replaces the file or {!clear} removes
    it.  A torn payload tail — the state a crash
    mid-append leaves — is detected structurally on open and
    truncated away; a record whose CRC fails at read time is copied
    to [quarantine/] and degrades to a miss; an I/O failure while
    writing degrades to "not cached", never a failed build.  All
    file traffic goes through {!Cmo_support.Fsio}, so every one of
    those paths is exercised deterministically by the fault-injection
    sweep ([bench fault-sweep]).

    Every public operation is guarded by an internal mutex, so a
    store may be shared between domains.  Parallel link-time CMO does
    not rely on that alone: workers read through {!type-txn}
    transactions (snapshot reads, buffered writes, logged operations)
    committed in a fixed order, which keeps the on-disk index and
    payload byte-identical whatever the worker count. *)

type t

val open_ : ?capacity:int -> dir:string -> unit -> t
(** Opens (creating the directory and files as needed) a store.
    [capacity] bounds live payload bytes; default 256 MiB.  A single
    artifact larger than the capacity is kept — the bound is enforced
    by evicting down to at most one entry. *)

val find : t -> string -> string option
(** Lookup by key; counts a hit or a miss and refreshes LRU order.
    An unreadable payload degrades to a miss; a record whose framing
    or CRC fails is quarantined first. *)

val add : t -> string -> string -> unit
(** [add t key data] stores (or replaces) an artifact and evicts as
    needed.  The payload write is flushed immediately; the index is
    persisted on {!flush}/{!close}. *)

val flush : t -> unit
val close : t -> unit

val clear : t -> unit
(** Drop every artifact and reset all counters; persists. *)

val wipe : dir:string -> unit
(** Remove a store's files, its quarantine directory, and the
    directory itself if then empty, without opening it; a no-op when
    nothing is there.  [Buildsys.clean] uses this. *)

type txn
(** An isolated view for one parallel worker: reads see the store as
    it stood at {!txn_begin} plus the transaction's own writes, and
    every operation is logged.  Nothing reaches the store (counters,
    LRU clock, files) until {!txn_commit} replays the log through the
    ordinary find/add path.  Workers run transactions concurrently;
    the committing thread commits them in a fixed (component) order,
    which makes the store's on-disk bytes independent of the worker
    count. *)

val txn_begin : t -> txn

val txn_find : txn -> string -> string option
(** Logged lookup: the transaction's own writes shadow the snapshot. *)

val txn_add : txn -> string -> string -> unit
(** Buffered, logged write; visible to this transaction's later
    [txn_find]s only. *)

val txn_commit : txn -> unit
(** Replay the log against the store in operation order.  Call from
    one thread at a time, in a deterministic transaction order.  A
    find whose record the transaction already read and verified, and
    whose key still maps to that record, replays as a hit's
    bookkeeping (counter, LRU tick) without reading it again; every
    other find replays as {!find}.  Unless the payload was damaged
    after the transaction read it, counters, index and payload end as
    if every find had replayed through {!find}.  The
    transaction is spent afterwards (its log and buffer are
    cleared). *)

type stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  entries : int;
  live_bytes : int;
  payload_bytes : int;  (** On-disk payload size, including dead bytes. *)
  capacity : int;
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
