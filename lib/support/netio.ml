module Obs = Cmo_obs.Obs

(* ---- fault plans (Fsio's scheme, applied to the wire) ---- *)

type kind = Drop | Stall | Garble | Reset | Partition

type plan = {
  seed : int;
  faults : (int * kind) list;
  ops : int Atomic.t;
  injections : int Atomic.t;
  mutable partitioned : bool;
}

let active : plan option Atomic.t = Atomic.make None

let parse spec =
  let tokens =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if tokens = [] then Error "empty net-fault plan"
  else
    let seed = ref 0 in
    let faults = ref [] in
    let err = ref None in
    let fail fmt = Printf.ksprintf (fun m -> err := Some m) fmt in
    List.iter
      (fun tok ->
        if !err <> None then ()
        else if tok = "count" then ()
        else
          match String.index_opt tok '@' with
          | Some i -> (
            let kind = String.sub tok 0 i in
            let at = String.sub tok (i + 1) (String.length tok - i - 1) in
            match (int_of_string_opt at, kind) with
            | None, _ | Some 0, _ ->
              fail "bad operation index in %S (want kind@K, K >= 1)" tok
            | Some k, _ when k < 1 ->
              fail "bad operation index in %S (want kind@K, K >= 1)" tok
            | Some k, "drop" -> faults := (k, Drop) :: !faults
            | Some k, "stall" -> faults := (k, Stall) :: !faults
            | Some k, "garble" -> faults := (k, Garble) :: !faults
            | Some k, "reset" -> faults := (k, Reset) :: !faults
            | Some k, "partition" -> faults := (k, Partition) :: !faults
            | Some _, _ ->
              fail
                "unknown net-fault kind %S (want drop, stall, garble, reset \
                 or partition)"
                kind)
          | None -> (
            match String.index_opt tok '=' with
            | Some i when String.sub tok 0 i = "seed" -> (
              match
                int_of_string_opt
                  (String.sub tok (i + 1) (String.length tok - i - 1))
              with
              | Some s -> seed := s
              | None -> fail "bad seed in %S" tok)
            | _ -> fail "unknown net-fault-plan token %S" tok))
      tokens;
    match !err with
    | Some m -> Error m
    | None ->
      Ok
        {
          seed = !seed;
          faults = List.rev !faults;
          ops = Atomic.make 0;
          injections = Atomic.make 0;
          partitioned = false;
        }

let install_plan spec =
  match parse spec with
  | Ok p ->
    Atomic.set active (Some p);
    Ok ()
  | Error _ as e -> e

let clear_plan () = Atomic.set active None

let plan_active () = Atomic.get active <> None

let op_count () =
  match Atomic.get active with Some p -> Atomic.get p.ops | None -> 0

let injected () =
  match Atomic.get active with Some p -> Atomic.get p.injections | None -> 0

let retries_total = Atomic.make 0

let retries () = Atomic.get retries_total

(* What the injection layer tells send/recv to do.  [Severed] is the
   sticky partitioned state; the one-shot kinds carry the operation
   index for the error message. *)
type verdict = Proceed | Severed | Fault of kind * int

let verdict () =
  match Atomic.get active with
  | None -> Proceed
  | Some p ->
    if p.partitioned then Severed
    else begin
      let k = 1 + Atomic.fetch_and_add p.ops 1 in
      match List.assoc_opt k p.faults with
      | None -> Proceed
      | Some f ->
        Atomic.incr p.injections;
        Obs.tick "net" "injected" 1;
        if f = Partition then p.partitioned <- true;
        Fault (f, k)
    end

let partitioned () =
  match Atomic.get active with Some p -> p.partitioned | None -> false

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

let backoff attempt =
  let seed = match Atomic.get active with Some p -> p.seed | None -> 0 in
  let g = Prng.create (seed lxor ((attempt * 0x85ebca6b) land max_int)) in
  Unix.sleepf (0.0005 *. float_of_int (1 lsl attempt) *. (1.0 +. Prng.float g 1.0))

let note_retry () =
  Atomic.incr retries_total;
  Obs.tick "net" "retries" 1

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
        note_retry ();
        backoff attempt;
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
let garbled plan k data =
  let b = Bytes.of_string data in
  let lo = if Bytes.length b > Fsio.frame_overhead then Fsio.frame_overhead else 8 in
  let g = Prng.create (plan.seed lxor ((k * 0x9e3779b9) land max_int)) in
  let pos = lo + Prng.int g (Bytes.length b - lo) in
  let bit = Prng.int g 8 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
  Bytes.unsafe_to_string b

let injected_error name k op =
  Printf.sprintf "injected %s at net op %d, %s" name k op

let send fd payload =
  match verdict () with
  | Proceed -> Fsio.write_framed fd payload
  | Severed -> () (* the network ate it *)
  | Fault (Drop, _) -> ()
  | Fault (Partition, _) -> ()
  | Fault (Stall, k) ->
    raise
      (Sys_error
         ("Connection timed out (" ^ injected_error "stall" k "send" ^ ")"))
  | Fault (Reset, k) ->
    raise
      (Sys_error
         ("Connection reset by peer (" ^ injected_error "reset" k "send" ^ ")"))
  | Fault (Garble, k) -> (
    match Atomic.get active with
    | Some p ->
      let data = garbled p k (Fsio.frame payload) in
      (* Bypass [Fsio.write_framed] — these are already framed (and
         deliberately damaged) bytes. *)
      let rec write_all off len =
        if len > 0 then begin
          let n =
            try Unix.write_substring fd data off len
            with Unix.Unix_error (Unix.EINTR, _, _) -> 0
          in
          write_all (off + n) (len - n)
        end
      in
      write_all 0 (String.length data)
    | None -> Fsio.write_framed fd payload)

let recv ?timeout_s ?max_payload fd =
  match verdict () with
  | Proceed -> Fsio.read_framed ?timeout_s ?max_payload fd
  | Severed -> Error `Timeout
  | Fault ((Drop | Stall | Partition), _) -> Error `Timeout
  | Fault (Reset, k) ->
    Error (`Bad ("connection reset by peer (" ^ injected_error "reset" k "recv" ^ ")"))
  | Fault (Garble, k) ->
    Error (`Bad ("crc mismatch (" ^ injected_error "garble" k "recv" ^ ")"))
