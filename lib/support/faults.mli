(** The fault plane: one deterministic fault plan for every injection
    site in the toolchain.

    Three sites inject faults, each at its own chokepoint:
    {!Fsio} (durable file I/O), {!Netio} (the framed wire) and the
    distributed pool's protocol clock ({!Cmo_driver.Distwork}, which
    kills the active worker).  They share one plan, one spec grammar,
    one seed and one retry backoff; each keeps its own typed fault
    kinds, its own operation counter and its own sticky state.

    {2 Grammar}

    A plan is a comma-separated spec, installed process-wide
    ([cmoc --fault-plan] / [$CMO_FAULT]; [cmocd] installs a request's
    spec for that request only).  Tokens:

    - [count] — inject nothing, just number every site's operations
      (sweeps use this to size themselves);
    - [seed=N] — seeds the torn-write prefix lengths, the garble bit
      position and the retry jitter;
    - [kind@K] — inject [kind] at operation K of its site, K >= 1.

    {v
    kind       site  operation K ...
    ---------  ----  ------------------------------------------------
    crash      fs    simulated power cut: a seeded prefix of the data
                     is written, {!Fsio.Crash} raised, and the site
                     goes inert (sticky) — later writes do nothing,
                     later reads re-raise
    enospc     fs    fails with "No space left on device"
    eio        fs    fails with "Input/output error"
    short      fs    writes a seeded prefix, then fails (the torn tail
                     is repaired back to the record boundary where the
                     framing allows it)
    transient  fs    fails EINTR-class twice, then succeeds on retry
    drop       net   the message is lost: a send writes nothing, a
                     receive reports [`Timeout]
    stall      net   the peer wedges: a receive reports [`Timeout], a
                     send fails timed-out
    garble     net   a send writes the frame with one seeded payload
                     bit flipped (the peer's CRC refuses it); a
                     receive reports [`Bad]
    reset      net   the connection dies ([Sys_error] on send, [`Bad]
                     on receive), one-shot
    partition  net   the network is severed for good (sticky): later
                     sends are dropped, receives time out, dials fail
    kill       proc  the active distributed worker is destroyed
                     mid-conversation (sticky: once per plan)
    v}

    Operations are numbered from 1 in execution order, per site:
    [crash@12] is the 12th durable I/O operation, [partition@5] the
    5th wire send or receive, [kill@4] the 4th parent-side protocol
    event — so [crash@3,partition@2,kill@4] plants one fault on each
    site's own clock.  Retries of one logical operation do not
    re-count, and operations suppressed by a site's sticky state do
    not count.  With [jobs = 1] a build's fs sequence is
    deterministic, which is what makes "crash at the k-th operation" a
    meaningful sweep axis.

    Injected failures surface exactly like real ones, so consumers
    that degrade gracefully under injection degrade identically under
    a real full disk, flaky network or lost machine.

    With no plan installed every site's check is a single atomic
    load. *)

(** {2 Fault kinds, one type per site} *)

type fs = Crash | Enospc | Eio | Short | Transient
type net = Drop | Stall | Garble | Reset | Partition
type proc = Kill

type 'k site
(** An injection site whose faults have kind ['k]. *)

val fs : fs site
val net : net site
val proc : proc site

(** {2 The plan} *)

val install : string -> (unit, string) result
(** Parse and install a spec; replaces any current plan and resets
    every site's operation counter and sticky state.  [Error]
    describes the first bad token. *)

val clear : unit -> unit
(** Remove the plan: every site's check returns to the single-load
    fast path, and sticky states heal. *)

val active : unit -> bool

val planned : 'k site -> (int * 'k) list
(** The current plan's [(K, kind)] faults at this site, in spec
    order ([[]] with no plan). *)

(** {2 The site check} *)

type 'k check =
  | Pass  (** No plan, or nothing planned at this operation. *)
  | Tripped
      (** The site's sticky fault already fired (fs crashed, net
          partitioned, proc killed); the operation is not counted. *)
  | Fire of 'k * int
      (** Inject this fault at this operation index.  Already counted
          in {!injected} and the [<site>/injected] Obs counter. *)

val check : 'k site -> 'k check
(** Number one operation at the site and say what to inject. *)

val tripped : 'k site -> bool
(** The site's sticky fault has fired under the current plan. *)

(** {2 Counters} *)

val op_count : 'k site -> int
(** Operations numbered at the site under the current plan (0 with
    no plan). *)

val injected : 'k site -> int
(** Faults injected at the site under the current plan. *)

val retries : 'k site -> int
(** Process-lifetime retries at the site, plan or not. *)

(** {2 Seeded retries and draws} *)

val note_retry : 'k site -> unit
(** Count one retry (also ticked to the [<site>/retries] Obs
    counter: [io/retries], [net/retries]). *)

val backoff : int -> unit
(** Sleep before retry [attempt] (1-based): exponential, with jitter
    drawn from the plan seed. *)

val draw : int -> Prng.t
(** A generator seeded by the plan seed and an operation index — the
    source of torn-prefix lengths and garble positions. *)
