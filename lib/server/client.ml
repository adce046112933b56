module Fsio = Cmo_support.Fsio
module Netio = Cmo_support.Netio

(* A client speaks to a daemon over a socket, or in-process to a
   registry directory through the daemon's own cohort handler. *)
type link = Socket of Unix.file_descr | Registry of Cmo_profile.Cohort.t

type t = { link : link; mutable open_ : bool }

exception Protocol_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Protocol_error m)) fmt

(* A [tcp:] daemon is dialed through Netio: connect deadline, bounded
   retry for transient errors — and the test fault-injection
   chokepoint.  The greeting goes out at once, without waiting for an
   answer: it travels ahead of the first request, so it costs no round
   trip. *)
let connect ~socket =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let unreachable m =
    raise (Sys_error (Printf.sprintf "cannot reach cmocd at %s: %s" socket m))
  in
  match
    match Netio.tcp_of_socket socket with
    | Some (host, port) -> (Netio.connect host port, None)
    | None ->
      (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Some (Unix.ADDR_UNIX socket))
  with
  | exception Sys_error m -> unreachable m
  | fd, path -> (
    try
      Option.iter (Unix.connect fd) path;
      Fsio.write_framed fd
        (Proto.string_of_request (Proto.Hello (Cmo_driver.Greeting.own ())));
      { link = Socket fd; open_ = true }
    with Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      unreachable (Unix.error_message e))

let offline ~state_dir =
  { link = Registry (Server.registry ~state_dir); open_ = true }

let close t =
  if t.open_ then begin
    t.open_ <- false;
    match t.link with
    | Socket fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | Registry _ -> ()
  end

let with_connect ~socket f =
  let t = connect ~socket in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let roundtrip t req =
  if not t.open_ then fail "connection is closed";
  match t.link with
  | Registry reg -> Server.serve_cohort reg req
  | Socket fd -> (
    (try Fsio.write_framed fd (Proto.string_of_request req)
     with Unix.Unix_error (e, _, _) ->
       fail "send failed: %s" (Unix.error_message e));
    match Fsio.read_framed fd with
    | Ok payload -> (
      match Proto.response_of_string payload with
      | Ok resp -> resp
      | Error m -> fail "bad response: %s" m)
    | Error (`Eof | `Timeout) -> fail "server closed the connection"
    | Error (`Bad m) -> fail "bad frame: %s" m)

(* Every typed call's answer to a reply it does not expect. *)
let unexpected req = function
  | Proto.Failed { reason; _ } -> fail "%s refused: %s" req reason
  | _ -> fail "unexpected reply to %s" req

let ping t = match roundtrip t Proto.Ping with
  | Proto.Pong -> true
  | _ -> false

let build t req = roundtrip t (Proto.Build req)

let stats t =
  match roundtrip t Proto.Stats with
  | Proto.Stats_reply s -> s
  | r -> unexpected "Stats" r

let shutdown_server t =
  match roundtrip t Proto.Shutdown with
  | Proto.Shutting_down -> ()
  | r -> unexpected "Shutdown" r

let cache_get t key =
  match roundtrip t (Proto.Cache_get { key }) with
  | Proto.Cache_hit { data } -> Some data
  | Proto.Cache_miss -> None
  | r -> unexpected "Cache_get" r

let cache_put t key data =
  match roundtrip t (Proto.Cache_put { key; data }) with
  | Proto.Cache_stored -> ()
  | r -> unexpected "Cache_put" r

let cohort_list t =
  match roundtrip t Proto.Cohort_list with
  | Proto.Cohort_listing { cohorts } -> cohorts
  | r -> unexpected "Cohort_list" r

let cohort_ingest t ~cohort shards =
  match roundtrip t (Proto.Cohort_ingest { cohort; shards }) with
  | Proto.Cohort_stored { shards; _ } -> shards
  | r -> unexpected "Cohort_ingest" r

let cohort_pull t ~cohort ~current_fp =
  match roundtrip t (Proto.Cohort_pull { cohort; current_fp }) with
  | Proto.Cohort_db { data; shards; skipped } -> (data, shards, skipped)
  | r -> unexpected "Cohort_pull" r

let cohort_diff t ~base ~canary ~percent ~threshold sources =
  match roundtrip t (Proto.Cohort_diff { base; canary; percent; threshold; sources })
  with
  | Proto.Cohort_report { report } -> (
    match Cmo_profile.Cohort.Diff.decode report with
    | report -> report
    | exception Cmo_support.Codec.Reader.Corrupt m ->
      fail "bad cohort report: %s" m)
  | r -> unexpected "Cohort_diff" r

let remote t =
  (* The pipeline's contract is that a remote degrades internally: the
     first transport or protocol failure turns this remote off for the
     rest of the build (every later get is a miss, every put a no-op),
     so a daemon dying mid-build costs one degradation, not one error
     per module. *)
  let dead = ref false in
  let guard default f =
    if !dead then default
    else
      try f ()
      with Protocol_error _ | Unix.Unix_error _ | Sys_error _ ->
        dead := true;
        default
  in
  {
    Cmo_driver.Distwork.remote_get =
      (fun key -> guard None (fun () -> cache_get t key));
    remote_put = (fun key data -> guard () (fun () -> cache_put t key data));
  }
