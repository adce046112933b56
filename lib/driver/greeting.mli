(** The greeting that opens every connection on both CMR1 protocols:
    a [cmoc-worker]'s [Hello] to its parent ({!Distwork}) and a
    client's first request to [cmocd] ([lib/server]).  Its wire
    version and build identity are either protocol's only
    compatibility rule: a peer whose greeting fails {!check} is
    refused by name, so message layouts may change along with them.
    The greeting's own layout never changes. *)

val wire_version : int
(** Bumped whenever either protocol's messages change shape. *)

type t = { wire : int; identity : string }

val own : unit -> t
(** What this process sends: {!wire_version} and [$CMO_WORKER_FP]
    when set at startup, else {!Cmo_buildid.id}. *)

val expected : Options.env -> string
(** The identity every greeting received must report:
    [$CMO_DIST_EXPECT_FP] when set in [env], else {!Cmo_buildid.id}. *)

val write : Cmo_support.Codec.Writer.t -> t -> unit
val read : Cmo_support.Codec.Reader.t -> t

val check : expect:string -> t -> (unit, string) result
(** The refusal reason, naming both versions or both identities, when
    the greeting does not speak {!wire_version} or report [expect]. *)
