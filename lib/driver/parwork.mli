(** Bounded worker-pool executor for the pipeline's embarrassingly
    parallel points (per-module frontend, per-component link-time HLO,
    per-module codegen): domains for work that needs cores, systhreads
    for partition jobs that wait on fleet workers.

    Determinism contract: results are delivered in submission order
    regardless of completion order, and a failed task re-raises its
    exception (with the worker's backtrace) at the position the
    sequential run would have raised it — the first failure in input
    order.  With [jobs = 1] no domain is ever spawned and every task
    runs inline at submission, so the sequential path is not merely
    equivalent to the parallel one, it is the same code. *)

type pool
type 'a future

val jobs : pool -> int
(** The worker count the pool was created with (at least 1). *)

val submit : pool -> (unit -> 'a) -> 'a future
(** Enqueue a task.  On an inline pool the task runs immediately. *)

val await : 'a future -> 'a
(** Block until the task completes; re-raises a captured exception
    with its original backtrace. *)

val map : pool -> ('a -> 'b) -> 'a list -> 'b list
(** Submit one task per element and await them in input order.  The
    first failure (by input order, as in [List.map]) is re-raised. *)

val with_pool : ?threads:bool -> jobs:int -> (pool -> 'a) -> 'a
(** Run [f] on a pool of [jobs] workers, then join them (also on
    exception).  The workers are domains, or with [~threads:true]
    systhreads of the calling domain: for tasks that mostly wait on a
    socket, which need no core of their own and so should not pay
    for domains' stop-the-world collections.  With [jobs <= 1] the
    pool is inline (no worker at all). *)

val memo_locked : (unit -> 'a) -> unit -> 'a
(** A domain-safe lazy: the first call runs [f], every later one (from
    any domain) returns its result.  Checker environments shared
    read-only across a pool are built this way. *)
