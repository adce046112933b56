(** The single chokepoint for network I/O, with deterministic fault
    injection — {!Fsio}'s design applied to the wire.

    Every TCP byte the toolchain moves — dialing a remote
    [cmoc-worker], the parent side of every distributed-worker
    conversation, a [cmocd] cache daemon reached over [tcp:] — goes
    through this module, which gives the system one place to implement
    the transport discipline (CMR1 framing, connect/read deadlines,
    bounded seed-jittered retry for transient connect errors) and one
    place to inject network faults for testing.

    {2 Error model}

    Injected failures surface exactly like real ones: a refused or
    timed-out dial is [Sys_error], a stalled read is [`Timeout], a
    corrupted or reset stream is [`Bad].  Consumers that degrade
    gracefully under injection therefore degrade identically under a
    real flaky network.  Injected faults are {e fail-fast}: a
    [stall@K] read returns [`Timeout] immediately rather than sleeping
    out the deadline, so a partition sweep over hundreds of protocol
    events costs seconds, not hours.

    {2 Fault injection}

    This module is the [net] site of the {!Faults} plan: {!send} and
    {!recv} each number one operation on the net clock, {!connect}
    numbers none (so the sweep axis is exactly the protocol-event
    sequence), and the plan's [drop], [stall], [garble], [reset] and
    [partition] faults land here (grammar and semantics in
    {!Faults}).  [cmoc-worker] never installs a plan, so a plan aimed
    at a build's parent cannot corrupt the far side of its own
    connections.  A sticky [partition] also fails
    every later {!connect}.  With no plan installed every entry
    point's injection check is a single atomic load. *)

(** {2 Addresses} *)

val parse_addr : string -> (string * int, string) result
(** Split ["host:port"] at the last colon; the port must be an
    integer in [0, 65535]. *)

val format_addr : string -> int -> string
(** [format_addr host port] is ["host:port"]. *)

(** {2 Connections} *)

val connect : ?timeout_s:float -> string -> int -> Unix.file_descr
(** Dial [host:port] with a per-attempt deadline ([timeout_s],
    default 10): non-blocking connect + select, then the socket error
    is checked, so a black-holed peer cannot wedge the caller.
    Transient errors (refused, timed out, unreachable, reset,
    EINTR/EAGAIN class) are retried up to 3 attempts with
    seed-jittered exponential backoff; DNS resolution failures and
    other hard errors are not.  The resulting socket is blocking with
    [TCP_NODELAY] set.  Raises [Sys_error] (real and injected
    failures look identical). *)

val listen : ?backlog:int -> string -> int -> Unix.file_descr * int
(** Bind and listen on [host:port] ([SO_REUSEADDR]; port 0 picks an
    ephemeral port) and return the listening socket with the actual
    bound port.  Never fault-injected — the injector models a flaky
    {e network}, and a listener that cannot even bind is a
    configuration error the caller should see raw.  Raises
    [Sys_error]. *)

val accept : Unix.file_descr -> Unix.file_descr * Unix.sockaddr
(** Accept one connection on a {!listen} socket (close-on-exec, with
    [TCP_NODELAY] set, like a {!connect}ed one).  Never fault-injected.
    Raises [Unix.Unix_error] as [Unix.accept] does. *)

(** {2 Framed messages}

    The same CMR1 frames as {!Fsio.write_framed} /
    {!Fsio.read_framed}, wrapped in the injection chokepoint.  The
    distributed wire protocol sends every parent-side message through
    these; pipe-connected local workers use them too, so one fault
    plan covers every placement. *)

val send : Unix.file_descr -> string -> unit
(** Write one framed message.  Raises [Unix.Unix_error] /
    [Sys_error] when the peer is gone (and for injected stall /
    reset). *)

val recv :
  ?timeout_s:float ->
  ?max_payload:int ->
  Unix.file_descr ->
  (string, [ `Eof | `Bad of string | `Timeout ]) result
(** Read one framed message; the result contract is exactly
    {!Fsio.read_framed}'s.  Injected faults report without touching
    the descriptor, so they are immediate regardless of
    [timeout_s]. *)
