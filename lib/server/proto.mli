(** The build-server wire protocol.

    Messages are {!Cmo_support.Codec} binary payloads framed on the
    socket with the same CMR1 magic + length + CRC-32 header the
    on-disk record streams use ({!Cmo_support.Fsio.frame}), so the
    transport inherits the store's corruption detection: a torn or
    bit-flipped message fails the frame scan instead of decoding
    garbage.  Framing violations are fatal for a connection — unlike a
    record file there is no authority for where the next record
    starts, so the peer closes rather than resynchronizing.

    One request is outstanding per connection at a time (the client is
    synchronous); concurrency comes from multiple connections. *)

type build_req = {
  tag : string;  (** Echoed in the response; client's correlation id. *)
  options : Cmo_driver.Options.t;
      (** The build's full option record, in the
          {!Cmo_driver.Options.encode} form partition jobs travel in,
          so the daemon's artifacts equal a local build with the same
          options.  The daemon owns five fields and ignores what the
          request says about them: [dist], [workers] and
          [dist_timeout] come from the daemon's own environment (as
          in {!Cmo_driver.Options.o2}); [trace] is always [None],
          since the daemon's trace sink spans its whole lifetime and
          a request must not start, stop or export it; and
          [instrument] is always false. *)
  profile : string option;
      (** {!Cmo_profile.Db.encode} bytes of the profile database the
          build uses with [options.pbo] — what a local build reads
          with [--profile].  Bytes that do not decode fail the
          request. *)
  fault : string option;
      (** A per-request {!Cmo_support.Fsio} fault-plan spec.  Fault
          plans are process-wide, so the server runs such a request
          exclusively (no other request in flight) and restores the
          store afterwards; a crash plan kills this request only. *)
  sources : Cmo_driver.Pipeline.source list;
}

type request =
  | Ping
  | Build of build_req
  | Stats
  | Shutdown
  | Cache_get of { key : string }
      (** Remote artifact cache: fetch the store record under this
          fingerprint key.  Served inline by the connection reader
          (never queued): lookups are cheap and a build farm's cache
          traffic must not sit behind build requests. *)
  | Cache_put of { key : string; data : string }
      (** Remote artifact cache: publish a record.  Content-addressed,
          so concurrent puts of the same key are idempotent. *)
  | Cohort_list
      (** Enumerate the daemon's named profile cohorts
          ({!Cmo_profile.Cohort}); served inline like the cache pair. *)
  | Cohort_ingest of { cohort : string; shards : string list }
      (** Append encoded {!Cmo_profile.Ingest} shards to the named
          cohort's pack, creating the cohort as needed — so an empty
          list is "create".  Garbage shards are rejected, not stored;
          a bad cohort name is rejected outright. *)
  | Cohort_pull of { cohort : string; current_fp : string }
      (** Fetch one cohort's canonical merged database: the daemon
          ingests the cohort's shards under the default policy for
          [current_fp] (skew/decay/clamp applied server-side) and
          returns canonical {!Cmo_profile.Db.encode} bytes —
          byte-identical to a local ingest of the same shards. *)
  | Cohort_diff of {
      base : string;
      canary : string;
      percent : float;  (** Hot-set selection percentage. *)
      threshold : float;  (** Would-flip share threshold. *)
      sources : Cmo_driver.Pipeline.source list;
          (** The program the selection question is about; the daemon
              front-ends it and fingerprints it for the pull policy. *)
    }
      (** The canary question: does the [canary] cohort induce a
          different module hot set than [base] on this program?
          Returns an encoded {!Cmo_profile.Cohort.Diff.report}. *)

type stats = {
  accepted : int;  (** Build requests admitted to the queue, ever. *)
  completed : int;
  failed : int;
  rejected : int;  (** Refused by admission control (or shutdown). *)
  queue_depth : int;
  inflight : int;
  store_hits : int;  (** Warm-store traffic, daemon lifetime. *)
  store_misses : int;
}

type response =
  | Pong
  | Built of {
      tag : string;
      objects : string list;
          (** {!Cmo_link.Objfile.encode} of each linked object, in
              link order — the byte-identity surface: a one-shot build
              of the same tree yields these exact strings. *)
      routine_order : string list;
          (** The built image's routines in placement order
              ({!Cmo_link.Image.t}[.funcs]).  Profile-guided clustering
              places routines from the annotated IL, which the objects
              do not carry, so the client relinks with this order
              ({!Cmo_link.Linker.link}[ ~routine_order]) to reproduce
              the daemon's image exactly. *)
      report : string;  (** {!Cmo_driver.Pipeline.report_to_json}. *)
    }
  | Rejected of { tag : string; reason : string }  (** Never attempted. *)
  | Failed of { tag : string; reason : string }  (** Attempted, failed. *)
  | Stats_reply of stats
  | Shutting_down
  | Cache_hit of { data : string }  (** [Cache_get] found the record. *)
  | Cache_miss
      (** [Cache_get]: no record under that key.  Clients degrade to
          local recompute — a miss is never an error. *)
  | Cache_stored  (** [Cache_put] acknowledged. *)
  | Cohort_listing of { cohorts : Cmo_profile.Cohort.info list }
      (** [Cohort_list]: every cohort, sorted by name. *)
  | Cohort_stored of { cohort : string; shards : int }
      (** [Cohort_ingest] acknowledged; the cohort's pack now holds
          this many decodable shards. *)
  | Cohort_db of { data : string; shards : int; skipped : int }
      (** [Cohort_pull]: canonical merged Db bytes plus how many
          shards were merged and how many damaged ones were skipped.
          An unknown or empty cohort is [shards = 0] with empty-Db
          [data] — clients treat it like a cache miss, never an
          error. *)
  | Cohort_report of { report : string }
      (** [Cohort_diff]: an encoded
          {!Cmo_profile.Cohort.Diff.report}. *)

val string_of_request : request -> string
val request_of_string : string -> (request, string) result
val string_of_response : response -> string
val response_of_string : string -> (response, string) result
(** Decoders reject bad tags, truncation and trailing bytes. *)

val max_payload : int
(** Frames advertising more than this many payload bytes are a
    protocol violation (64 MiB). *)

val write_message : Unix.file_descr -> string -> unit
(** Frame and send one message payload.  Raises [Unix.Unix_error] on
    transport failure (e.g. the peer vanished). *)

val read_message : Unix.file_descr -> (string, [ `Eof | `Bad of string ]) result
(** Read one framed message.  [`Eof] is a clean close between
    messages; [`Bad] is a framing violation (bad magic, CRC mismatch,
    oversized, or a close mid-frame) after which the connection is
    unusable. *)
