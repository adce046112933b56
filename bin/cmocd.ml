(* cmocd: the build-server daemon.

     cmocd --socket /tmp/cmo.sock --jobs 2 --state-dir .cmocd

   Serves cmoc --remote build requests over a Unix-domain socket
   against a warm artifact store and NAIM repository (lib/server).
   SIGINT/SIGTERM shut down gracefully: in-flight and already-queued
   requests drain, new ones are refused, the socket file is removed. *)

module Options = Cmo_driver.Options
module Server = Cmo_server.Server
open Cmdliner

let socket_arg =
  let default =
    match Options.env.Options.env_socket with
    | Some s -> s
    | None -> "cmocd.sock"
  in
  Arg.(value & opt string default & info [ "socket"; "listen" ] ~docv:"ADDR"
         ~doc:"Where to listen: a Unix-domain socket path, or \
               tcp:HOST:PORT for the multi-machine transport (port 0 \
               binds an ephemeral port; the ready line reports the \
               actual one).  Defaults to \\$CMO_SOCKET or cmocd.sock.")

let jobs_arg =
  Arg.(value & opt int Options.env.Options.env_daemon_jobs
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Concurrent build requests (builder threads).  Defaults \
                 to \\$CMO_DAEMON_JOBS or 2.  Each request additionally \
                 parallelizes internally per its own jobs setting.")

let queue_max_arg =
  Arg.(value & opt int Options.env.Options.env_queue_max
       & info [ "queue-max" ] ~docv:"N"
           ~doc:"Admission bound: at most N requests queued; beyond that \
                 requests are rejected (clients retry).  Defaults to \
                 \\$CMO_QUEUE_MAX or 64.")

let state_dir_arg =
  Arg.(value & opt string ".cmocd" & info [ "state-dir" ] ~docv:"DIR"
         ~doc:"Where the daemon's warm state lives (artifact store and \
               NAIM repository); created if missing.")

let cache_capacity_arg =
  Arg.(value & opt (some int) None & info [ "cache-capacity" ] ~docv:"MB"
         ~doc:"Artifact store live-byte bound in MiB (default 256).")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record the daemon's whole lifetime with the observability \
               sink and write a Chrome-trace JSON to FILE on shutdown; \
               per-request reports then carry cumulative counters.  Also \
               enabled by \\$CMO_TRACE.")

let pid_file_arg =
  Arg.(value & opt (some string) None & info [ "pid-file" ] ~docv:"FILE"
         ~doc:"Write the daemon's pid to FILE once listening; removed on \
               clean shutdown.  Supervision scripts use it to find and to \
               confirm teardown of the daemon.")

let log_arg =
  let level =
    Arg.enum
      [ ("quiet", None); ("info", Some Logs.Info); ("debug", Some Logs.Debug) ]
  in
  Arg.(value & opt level (Some Logs.Info) & info [ "log" ] ~docv:"LEVEL"
         ~doc:"Daemon diagnostics: quiet, info, debug.")

let action socket jobs queue_max state_dir cache_capacity trace pid_file log =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level log;
  if jobs < 1 then `Error (false, "--jobs must be >= 1")
  else if queue_max < 1 then `Error (false, "--queue-max must be >= 1")
  else begin
    let trace =
      match trace with None -> Options.env.Options.env_trace | some -> some
    in
    let cfg =
      {
        Server.socket;
        builders = jobs;
        queue_max;
        state_dir;
        cache_capacity =
          Option.map (fun mb -> mb * 1024 * 1024) cache_capacity;
        trace;
      }
    in
    (* start installs the SIGINT/SIGTERM shutdown handlers itself,
       before unblocking the signals — installing them here would
       leave a window where a signal kills us without a drain. *)
    match Server.start ~handle_signals:true cfg with
    | exception Unix.Unix_error (e, _, _) ->
      `Error
        (false, Printf.sprintf "cannot listen on %s: %s" socket
                  (Unix.error_message e))
    | exception Sys_error m ->
      `Error (false, Printf.sprintf "cannot listen on %s: %s" socket m)
    | t ->
      Option.iter
        (fun f ->
          Cmo_support.Fsio.atomic_write f (string_of_int (Unix.getpid ()) ^ "\n"))
        pid_file;
      (* The ready line is the contract scripts wait on before
         pointing clients at the socket; Server.address (not the raw
         config) so a tcp:HOST:0 request reports the real port. *)
      Printf.printf "cmocd: listening on %s\n%!" (Server.address t);
      Server.wait t;
      Option.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        pid_file;
      Printf.printf "cmocd: shutdown complete\n%!";
      `Ok ()
  end

let cmd =
  let doc = "build-server daemon for the CMO toolchain" in
  Cmd.v
    (Cmd.info "cmocd" ~version:("1.0 (build " ^ Cmo_buildid.id ^ ")") ~doc)
    Term.(ret (const action $ socket_arg $ jobs_arg $ queue_max_arg
               $ state_dir_arg $ cache_capacity_arg $ trace_arg $ pid_file_arg
               $ log_arg))

let () = exit (Cmd.eval cmd)
