let partitioned () = Faults.tripped Faults.net

(* ---- addresses ---- *)

let format_addr host port = Printf.sprintf "%s:%d" host port

let parse_addr s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "bad address %S (want HOST:PORT)" s)
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p >= 0 && p <= 65535 && host <> "" -> Ok (host, p)
    | _ -> Error (Printf.sprintf "bad address %S (want HOST:PORT)" s))

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> addrs.(0)
    | _ | (exception Not_found) ->
      raise (Sys_error (host ^ ": cannot resolve host")))

(* ---- connect, with deadline + bounded seeded-jitter retry ---- *)

let sys_error_of_unix where e = Sys_error (where ^ ": " ^ Unix.error_message e)

let is_transient_connect = function
  | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ETIMEDOUT | Unix.EHOSTUNREACH
  | Unix.ENETUNREACH | Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK ->
    true
  | _ -> false

let max_attempts = 3

let connect_once ~timeout_s addr host port =
  let where = format_addr host port in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.set_nonblock fd;
    (try Unix.connect fd (Unix.ADDR_INET (addr, port))
     with Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) -> ());
    let deadline = Unix.gettimeofday () +. timeout_s in
    let rec wait () =
      let remain = deadline -. Unix.gettimeofday () in
      if remain <= 0.0 then
        raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", where))
      else
        match Unix.select [] [ fd ] [] remain with
        | _, [ _ ], _ -> ()
        | _ -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", where))
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    wait ();
    (match Unix.getsockopt_error fd with
    | None -> ()
    | Some e -> raise (Unix.Unix_error (e, "connect", where)));
    Unix.clear_nonblock fd;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true
     with Unix.Unix_error _ -> ());
    fd
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let connect ?(timeout_s = 10.0) host port =
  let where = format_addr host port in
  if partitioned () then
    raise (Sys_error (where ^ ": Connection timed out (injected partition)"));
  let addr = resolve host in
  let rec go attempt =
    match connect_once ~timeout_s addr host port with
    | fd -> fd
    | exception Unix.Unix_error (e, _, _) ->
      if attempt < max_attempts && is_transient_connect e then begin
        Faults.note_retry Faults.net;
        Faults.backoff attempt;
        (* A partition can land while we were backing off. *)
        if partitioned () then
          raise
            (Sys_error (where ^ ": Connection timed out (injected partition)"))
        else go (attempt + 1)
      end
      else raise (sys_error_of_unix where e)
  in
  go 1

let listen ?(backlog = 16) host port =
  let addr = resolve host in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (addr, port));
    Unix.listen fd backlog;
    let actual =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    (fd, actual)
  with Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise (sys_error_of_unix (format_addr host port) e)

(* The accepting end needs [TCP_NODELAY] as much as the dialing end:
   the protocol is small request/reply frames, and Nagle holding back a
   reply until the peer's delayed ACK stalls every exchange. *)
let accept fd =
  let conn, addr = Unix.accept ~cloexec:true fd in
  (try Unix.setsockopt conn Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  (conn, addr)

(* ---- framed messages through the injection chokepoint ---- *)

(* Corrupt one payload bit of a framed message (or a CRC bit when the
   payload is empty): the bytes still parse as a frame, so the peer's
   CRC check — not its framing scan — is what refuses them.  The
   position is a deterministic function of the plan seed and the
   operation index. *)
let garbled k data =
  let b = Bytes.of_string data in
  let lo = if Bytes.length b > Fsio.frame_overhead then Fsio.frame_overhead else 8 in
  let g = Faults.draw k in
  let pos = lo + Prng.int g (Bytes.length b - lo) in
  let bit = Prng.int g 8 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
  Bytes.unsafe_to_string b

let injected_error name k op =
  Printf.sprintf "injected %s at net op %d, %s" name k op

let send fd payload =
  match Faults.check Faults.net with
  | Pass -> Fsio.write_framed fd payload
  | Tripped | Fire ((Drop | Partition), _) -> () (* the network ate it *)
  | Fire (Stall, k) ->
    raise
      (Sys_error
         ("Connection timed out (" ^ injected_error "stall" k "send" ^ ")"))
  | Fire (Reset, k) ->
    raise
      (Sys_error
         ("Connection reset by peer (" ^ injected_error "reset" k "send" ^ ")"))
  | Fire (Garble, k) ->
    (* Already framed, and deliberately damaged, bytes. *)
    Fsio.write_all fd (garbled k (Fsio.frame payload))

let recv ?timeout_s ?max_payload fd =
  match Faults.check Faults.net with
  | Pass -> Fsio.read_framed ?timeout_s ?max_payload fd
  | Tripped | Fire ((Drop | Stall | Partition), _) -> Error `Timeout
  | Fire (Reset, k) ->
    Error (`Bad ("connection reset by peer (" ^ injected_error "reset" k "recv" ^ ")"))
  | Fire (Garble, k) ->
    Error (`Bad ("crc mismatch (" ^ injected_error "garble" k "recv" ^ ")"))
