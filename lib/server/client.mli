(** Synchronous client for the build server: one outstanding request
    per connection, blocking until its response arrives.  [cmoc
    --remote], the storm load driver and the tests all speak through
    this.  An {!offline} client answers the cohort calls in-process
    from a registry directory through the daemon's own handler
    ({!Server.serve_cohort}), so every [cohort_*] call behaves the
    same against a live daemon or a state directory. *)

type t

exception Protocol_error of string
(** The server answered with something other than the protocol allows
    (bad frame, bad message, wrong reply shape, early close). *)

val connect : socket:string -> t
(** Dial [socket] ({!Cmo_support.Netio.tcp_of_socket} grammar) and send
    this process's {!Cmo_driver.Greeting.own} ahead of the first
    request.  Raises [Sys_error] naming the socket when the address is
    bad or the daemon is not there. *)

val offline : state_dir:string -> t
(** An in-process client over the cohort registry a daemon with this
    state directory would serve.  Only the [cohort_*] calls succeed;
    every other request is refused ({!Protocol_error}). *)

val close : t -> unit

val with_connect : socket:string -> (t -> 'a) -> 'a

val ping : t -> bool

val build : t -> Proto.build_req -> Proto.response
(** [Built], [Rejected] or [Failed] (never the other arms). *)

val stats : t -> Proto.stats

val shutdown_server : t -> unit
(** Ask the daemon to shut down gracefully; returns once acknowledged
    (drain completes after). *)

(** {2 Remote artifact cache} *)

val cache_get : t -> string -> string option
(** Fetch a store record by fingerprint key from the daemon's store;
    [None] on a miss (which is normal, not an error). *)

val cache_put : t -> string -> string -> unit
(** Publish a store record under its fingerprint key. *)

(** {2 Profile cohorts}

    A call the registry refuses (bad name, garbage shard, a program
    that does not compile) raises {!Protocol_error} with the reason. *)

val cohort_list : t -> Cmo_profile.Cohort.info list
(** The registry's named cohorts, sorted by name. *)

val cohort_ingest : t -> cohort:string -> string list -> int
(** Append encoded shards to a named cohort (created as needed; an
    empty list just creates); returns the cohort's decodable-shard
    count. *)

val cohort_pull : t -> cohort:string -> current_fp:string -> string * int * int
(** [(db bytes, shards merged, shards skipped)]: the cohort's
    canonical merged database for the given source fingerprint
    (decay, skew and the poisoning clamp applied by the registry) —
    byte-identical to a local ingest of the same shards.  An unknown
    or empty cohort is [(empty Db, 0, 0)], not an error. *)

val cohort_diff :
  t ->
  base:string ->
  canary:string ->
  percent:float ->
  threshold:float ->
  Cmo_driver.Pipeline.source list ->
  Cmo_profile.Cohort.Diff.report
(** Ask the registry whether [canary] induces a different module hot
    set than [base] on this program (selection at [percent], flip
    verdict at [threshold]). *)

val remote : t -> Cmo_driver.Distwork.remote
(** Wrap the connection as a degrading remote cache for
    {!Cmo_driver.Pipeline.compile}: any transport or protocol failure
    disables the remote for the rest of the build (misses / dropped
    puts) instead of raising — a remote-cache fault never fails a
    build. *)
