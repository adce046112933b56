(* cmoc-worker: one distributed link-time CMO partition worker.

   Two placements, one protocol:

   - spawned by the parent build process (no arguments): serve
     partition jobs framed over stdin/stdout until the parent says
     Bye or closes the pipe;
   - a fleet member ([--listen HOST:PORT], port 0 = ephemeral):
     accept TCP connections and serve each one the same conversation,
     announcing the bound address on stdout (and in [--port-file]
     when given, for race-free harnesses).

   All state is per-job — a worker holds no heap shared with the
   parent or with other workers, which is the process isolation the
   distributed mode exists to provide.  Every handshake reports the
   build identity dune compiled into the binary ([--version] prints
   it), so nothing is hashed at run time. *)

let usage () =
  prerr_endline
    "usage: cmoc-worker [--listen HOST:PORT] [--port-file FILE] | --version";
  exit 64

let () =
  (* The parent talks protocol on our stdin/stdout; anything the
     toolchain prints must not corrupt it, so diagnostics go to
     stderr. *)
  Logs.set_reporter (Logs.format_reporter ~app:Format.err_formatter ());
  (match Cmo_driver.Options.env.Cmo_driver.Options.env_worker_log with
  | Some "debug" -> Logs.set_level (Some Logs.Debug)
  | Some "info" -> Logs.set_level (Some Logs.Info)
  | Some _ | None -> Logs.set_level None);
  let listen = ref None in
  let port_file = ref None in
  let rec parse = function
    | [] -> ()
    | [ "--version" ] ->
      Printf.printf "1.0 (build %s)\n" Cmo_buildid.id;
      exit 0
    | "--listen" :: addr :: rest ->
      listen := Some addr;
      parse rest
    | "--port-file" :: path :: rest ->
      port_file := Some path;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !listen with
  | None -> Cmo_driver.Distwork.worker_main Unix.stdin Unix.stdout
  | Some addr -> (
    match Cmo_support.Netio.parse_addr addr with
    | Error m ->
      prerr_endline ("cmoc-worker: " ^ m);
      exit 64
    | Ok (host, port) -> (
      try Cmo_driver.Distwork.worker_listen ?port_file:!port_file host port
      with Sys_error m ->
        prerr_endline ("cmoc-worker: " ^ m);
        exit 1))
