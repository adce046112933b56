module Obs = Cmo_obs.Obs
module Fsio = Cmo_support.Fsio
module Faults = Cmo_support.Faults
module Netio = Cmo_support.Netio
module Codec = Cmo_support.Codec
module Fingerprint = Cmo_support.Fingerprint
module Store = Cmo_cache.Store
module Db = Cmo_profile.Db
module Ingest = Cmo_profile.Ingest
module Cohort = Cmo_profile.Cohort
module Selectivity = Cmo_hlo.Selectivity
module Options = Cmo_driver.Options
module Pipeline = Cmo_driver.Pipeline
module Buildsys = Cmo_driver.Buildsys
module Greeting = Cmo_driver.Greeting
module Objfile = Cmo_link.Objfile

let log_src = Logs.Src.create "cmo.server" ~doc:"Build-server daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  socket : string;
  builders : int;
  queue_max : int;
  state_dir : string;
  cache_capacity : int option;
  trace : string option;
}

let default_config =
  {
    socket = "cmocd.sock";
    builders = Options.env.Options.env_daemon_jobs;
    queue_max = Options.env.Options.env_queue_max;
    state_dir = ".cmocd";
    cache_capacity = None;
    trace = None;
  }

(* Requests holding a fault plan run exclusively: plans are
   process-wide, so a plan meant for one request must not see another
   request's I/O.  Normal requests hold the gate shared. *)
type gate = {
  glock : Mutex.t;
  gcond : Condition.t;
  mutable shared : int;
  mutable exclusive : bool;
}

let gate_create () =
  { glock = Mutex.create (); gcond = Condition.create ();
    shared = 0; exclusive = false }

let with_shared g f =
  Mutex.lock g.glock;
  while g.exclusive do Condition.wait g.gcond g.glock done;
  g.shared <- g.shared + 1;
  Mutex.unlock g.glock;
  Fun.protect f ~finally:(fun () ->
      Mutex.lock g.glock;
      g.shared <- g.shared - 1;
      Condition.broadcast g.gcond;
      Mutex.unlock g.glock)

let with_exclusive g f =
  Mutex.lock g.glock;
  while g.exclusive do Condition.wait g.gcond g.glock done;
  g.exclusive <- true;
  while g.shared > 0 do Condition.wait g.gcond g.glock done;
  Mutex.unlock g.glock;
  Fun.protect f ~finally:(fun () ->
      Mutex.lock g.glock;
      g.exclusive <- false;
      Condition.broadcast g.gcond;
      Mutex.unlock g.glock)

type job = { req : Proto.build_req; reply : Proto.response -> unit }

type t = {
  cfg : config;
  address : string;  (* the bound address: cfg.socket with a real port *)
  expect : string;  (* the build identity every greeting must report *)
  listen_fd : Unix.file_descr;
  (* Self-pipe: [shutdown] writes a byte to [wake_w] so the accept
     thread parked in select(2) wakes deterministically. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  session : Buildsys.session;
  session_lock : Mutex.t;  (* guards reopen_store vs. stats reads *)
  (* Named profile cohorts (the default "fleet" cohort, canary vs
     stable, A/B arms), one registry under state_dir; [profile_lock]
     serializes its pack I/O across connections. *)
  profile_lock : Mutex.t;
  cohorts : Cohort.t;
  (* Counters banked from stores closed by [reopen_store], so stats
     stay cumulative across chaos requests; under [session_lock]. *)
  mutable store_hits_base : int;
  mutable store_misses_base : int;
  sched : job Sched.t;
  gate : gate;
  stop : bool Atomic.t;
  accepted : int Atomic.t;
  completed : int Atomic.t;
  failed : int Atomic.t;
  rejected : int Atomic.t;
  inflight : int Atomic.t;
  conns : (int, Unix.file_descr) Hashtbl.t;
  conns_lock : Mutex.t;
  mutable accept_thread : Thread.t option;
  mutable builder_threads : Thread.t list;
}

(* [f] on the session's current store, under [session_lock]. *)
let with_store t f =
  Mutex.protect t.session_lock (fun () -> f (Buildsys.session_store t.session))

let stats t =
  let store_hits, store_misses =
    with_store t @@ fun store ->
    let hits, misses =
      match store with
      | None -> (0, 0)
      | Some store ->
        let s = Store.stats store in
        (s.Store.hits, s.Store.misses)
    in
    (t.store_hits_base + hits, t.store_misses_base + misses)
  in
  {
    Proto.accepted = Atomic.get t.accepted;
    completed = Atomic.get t.completed;
    failed = Atomic.get t.failed;
    rejected = Atomic.get t.rejected;
    queue_depth = Sched.depth t.sched;
    inflight = Atomic.get t.inflight;
    store_hits;
    store_misses;
  }

let registry ~state_dir =
  Cohort.open_ ~dir:(Filename.concat state_dir "cohorts")

let refuse reason = Proto.Failed { tag = ""; reason }

(* The cohort requests, answered against one registry — by the daemon
   for its connections and by {!Client.offline} in-process, so both
   transports give the same bytes.  [lock] covers registry I/O only:
   a diff's frontend runs outside it.  Bad cohort names and garbage
   shards are refused; everything else degrades (an unknown cohort
   pulls as empty, damage is skipped and counted by the reader). *)
let serve_cohort ?lock reg (req : Proto.request) =
  let locked f = match lock with None -> f () | Some m -> Mutex.protect m f in
  let tick name = if Obs.enabled () then Obs.tick "server" name 1 in
  let pull ~current_fp name =
    locked (fun () ->
        Cohort.pull reg ~policy:(Ingest.default_policy ~current_fp) name)
  in
  match req with
  | Proto.Cohort_list ->
    Proto.Cohort_listing { cohorts = locked (fun () -> Cohort.list reg) }
  | Proto.Cohort_ingest { cohort; shards } -> (
    tick "cohort_ingests";
    match List.map Ingest.decode_shard shards with
    | exception Codec.Reader.Corrupt m -> refuse ("bad profile shard: " ^ m)
    | decoded -> (
      match locked (fun () -> Cohort.ingest_into reg cohort decoded) with
      | n -> Proto.Cohort_stored { cohort; shards = n }
      | exception Cohort.Bad_name n -> refuse ("bad cohort name: " ^ n)
      | exception Sys_error m -> refuse ("cohort store: " ^ m)))
  | Proto.Cohort_pull { cohort; current_fp } -> (
    tick "cohort_pulls";
    match pull ~current_fp cohort with
    | db, st ->
      Proto.Cohort_db
        {
          data = Db.encode db;
          shards = st.Ingest.ing_shards;
          skipped = st.Ingest.ing_skipped;
        }
    | exception Cohort.Bad_name n -> refuse ("bad cohort name: " ^ n))
  | Proto.Cohort_diff { base; canary; percent; threshold; sources } -> (
    tick "cohort_diffs";
    match
      List.iter
        (fun n -> if not (Cohort.valid_name n) then raise (Cohort.Bad_name n))
        [ base; canary ];
      (* The floats arrive off the wire: clamp rather than let
         garbage reach Selectivity's percent assertion. *)
      let percent =
        if Float.is_nan percent then 20.0
        else Float.min 100.0 (Float.max 0.0 percent)
      in
      let threshold =
        if Float.is_nan threshold || threshold < 0.0 then
          Cohort.Diff.default_threshold
        else threshold
      in
      let current_fp =
        Ingest.fingerprint
          (List.map
             (fun (s : Pipeline.source) -> (s.Pipeline.name, s.Pipeline.text))
             sources)
      in
      let base_db = fst (pull ~current_fp base) in
      let canary_db = fst (pull ~current_fp canary) in
      let modules = Pipeline.frontend sources in
      let hot label db = Selectivity.cohort_hot_set ~percent ~label db modules in
      Cohort.Diff.diff ~threshold ~base:(hot base base_db)
        (hot canary canary_db)
    with
    | report -> Proto.Cohort_report { report = Cohort.Diff.encode report }
    | exception Cohort.Bad_name n -> refuse ("bad cohort name: " ^ n)
    | exception Pipeline.Compile_error m -> refuse ("cohort diff: " ^ m)
    | exception e -> refuse ("cohort diff: " ^ Printexc.to_string e))
  | _ -> refuse "not a cohort request (an offline registry answers only those)"

(* The request's options, minus the fields the daemon owns.  Its
   distribution placement is what the daemon's environment sets in
   [Options.o2] (the base record).  It owns the trace sink for its
   whole lifetime, so a request must not start, stop or export it, and
   it never instruments.  A request's [jobs] is capped at its share of
   the host's recommended domain count: [builders] requests run at
   once, so together they never ask for more domains than the host
   recommends, and [jobs] never changes output bytes. *)
let request_options ~builders (b : Proto.build_req) =
  let own = Options.o2 in
  {
    b.Proto.options with
    Options.jobs =
      min b.Proto.options.Options.jobs
        (max 1 (Domain.recommended_domain_count () / builders));
    trace = None;
    dist = own.Options.dist;
    workers = own.Options.workers;
    dist_timeout = own.Options.dist_timeout;
    instrument = false;
  }

let source_lines (sources : Pipeline.source list) =
  List.fold_left
    (fun acc (s : Pipeline.source) ->
      acc + 1
      + String.fold_left
          (fun n c -> if c = '\n' then n + 1 else n)
          0 s.Pipeline.text)
    0 sources

(* The session store as a cache of frontend output, so a request
   lowers only the sources it changed.  Records are IL objects keyed on
   the source's name and text and on the build identity (the store
   outlives a daemon binary, and the IL encoding is its own).  [find]
   returns IL objects only: a code object carries no arities, and the
   chain would then skip the program check.  [save] encodes at once,
   before the chain annotates and optimizes the module in place.  A
   record that does not decode, or names another module, is a miss. *)
let il_objects store =
  let key (src : Pipeline.source) =
    Fingerprint.of_strings [ "il1"; Cmo_buildid.id; src.Pipeline.name; src.Pipeline.text ]
  in
  {
    Pipeline.find =
      (fun ~il:_ src ->
        match Option.map Objfile.decode (Store.find store (key src)) with
        | Some obj when Objfile.is_il obj && obj.Objfile.module_name = src.Pipeline.name ->
          Some obj
        | Some _ | None -> None
        | exception Codec.Reader.Corrupt _ -> None);
    save =
      (fun src obj -> if Objfile.is_il obj then Store.add store (key src) (Objfile.encode obj));
  }

let compile_once t ?profile options sources =
  let cache = Buildsys.session_store t.session in
  Pipeline.compile ?profile ?cache
    ?naim_repo:(Buildsys.session_repo t.session)
    ?objects:(Option.map il_objects cache) options sources

(* One build request, against the shared warm session.  A fault plan
   makes the request exclusive; afterwards the plan is cleared and the
   store reopened from disk — a simulated power cut leaves the
   in-memory store state ahead of the bytes actually written, and
   reopening recovers exactly as a restarted process would, so a
   crashed request never poisons the requests after it. *)
let execute t (b : Proto.build_req) =
  let options = request_options ~builders:t.cfg.builders b in
  let build () =
    let profile =
      match Option.map Db.decode b.Proto.profile with
      | profile -> profile
      | exception Codec.Reader.Corrupt m ->
        raise (Pipeline.Compile_error ("bad profile database: " ^ m))
    in
    compile_once t ?profile options b.Proto.sources
  in
  match
    match b.Proto.fault with
    | None -> with_shared t.gate build
    | Some spec ->
      with_exclusive t.gate @@ fun () ->
      (match Faults.install spec with
      | Error m ->
        raise (Pipeline.Compile_error (Printf.sprintf "bad fault plan: %s" m))
      | Ok () -> ());
      Fun.protect build ~finally:(fun () ->
          Faults.clear ();
          with_store t (fun store ->
              (* Reopening discards the store's in-memory counters;
                 bank them first so stats stay cumulative across
                 chaos requests. *)
              (match store with
              | None -> ()
              | Some store ->
                let s = Store.stats store in
                t.store_hits_base <- t.store_hits_base + s.Store.hits;
                t.store_misses_base <- t.store_misses_base + s.Store.misses);
              Buildsys.reopen_store t.session))
  with
  | build ->
    Atomic.incr t.completed;
    if Obs.enabled () then Obs.tick "server" "completed" 1;
    Proto.Built
      {
        tag = b.Proto.tag;
        objects = List.map Objfile.encode build.Pipeline.objects;
        routine_order =
          List.map
            (fun (name, _, _) -> name)
            build.Pipeline.image.Cmo_link.Image.funcs;
        report =
          Cmo_obs.Json.to_string
            (Pipeline.report_to_json build.Pipeline.report);
      }
  | exception e ->
    Atomic.incr t.failed;
    if Obs.enabled () then Obs.tick "server" "failed" 1;
    let reason =
      match e with
      | Pipeline.Compile_error m -> m
      | e when Fsio.is_crash e -> "injected crash killed this request"
      | Sys_error m -> "i/o failure: " ^ m
      (* A builder thread must survive anything a request throws at
         it; the failure is the request's, not the daemon's. *)
      | e -> "internal error: " ^ Printexc.to_string e
    in
    Proto.Failed { tag = b.Proto.tag; reason }

let builder_loop t =
  let rec loop () =
    match Sched.take t.sched with
    | None -> ()
    | Some job ->
      Atomic.incr t.inflight;
      if Obs.enabled () then begin
        Obs.tick "server" "dispatched" 1;
        Obs.sample "server.queue"
          [ ("depth", float_of_int (Sched.depth t.sched)) ]
      end;
      let resp =
        Obs.with_span ~cat:"server"
          ("request:" ^ job.req.Proto.tag)
          (fun () -> execute t job.req)
      in
      Atomic.decr t.inflight;
      job.reply resp;
      loop ()
  in
  loop ()

let shutdown t =
  if not (Atomic.exchange t.stop true) then begin
    Log.info (fun f -> f "shutting down: draining %d queued request(s)"
                 (Sched.depth t.sched));
    Sched.close t.sched;
    (* Wake the accept thread out of select(2).  Unlike connecting to
       our own socket, this cannot be defeated by the socket file
       having been removed or replaced externally. *)
    try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()
  end

let conn_loop t id fd =
  (* A queued or in-flight build holds [reply] (and thus this fd) in
     its closure.  Closing the fd the moment the reader exits would
     let the kernel reuse the descriptor number, and a later reply
     would write its frame into whatever unrelated fd got that number
     — cross-connection corruption, not just a caught EBADF.  So the
     reader's exit only *retires* the connection; the fd is closed
     when the last pending reply has been delivered (immediately when
     none are), and replies after close are dropped under [lock]. *)
  let lock = Mutex.create () in
  let pending = ref 0 in
  let retired = ref false in
  let closed = ref false in
  let close_conn () =
    (* Callers hold [lock]. *)
    if not !closed then begin
      closed := true;
      Mutex.protect t.conns_lock (fun () -> Hashtbl.remove t.conns id);
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
  in
  let reply resp =
    Mutex.protect lock @@ fun () ->
    if !closed then
      Log.debug (fun f -> f "conn %d: reply dropped, connection closed" id)
    else
      try Fsio.write_framed fd (Proto.string_of_response resp)
      with Unix.Unix_error _ | Sys_error _ ->
        (* The client vanished; its build is already done or doomed. *)
        Log.debug (fun f -> f "conn %d: reply dropped, peer gone" id)
  in
  let retain () = Mutex.protect lock (fun () -> incr pending) in
  let release () =
    Mutex.protect lock @@ fun () ->
    decr pending;
    if !retired && !pending = 0 then close_conn ()
  in
  let retire () =
    Mutex.protect lock @@ fun () ->
    retired := true;
    if !pending = 0 then close_conn ()
  in
  let next () =
    match Fsio.read_framed fd with
    | Ok payload -> Some payload
    | Error (`Eof | `Timeout) -> None
    | Error (`Bad m) ->
      (* Framing violation: answer if the pipe still works, then drop
         the connection — there is no trustworthy next-frame offset. *)
      Log.warn (fun f -> f "conn %d: bad frame (%s)" id m);
      reply (refuse ("protocol: " ^ m));
      None
  in
  let rec loop () =
    match next () with
    | None -> ()
    | Some payload -> (
      match Proto.request_of_string payload with
      | Error m ->
        Log.warn (fun f -> f "conn %d: bad message (%s)" id m);
        reply (refuse ("protocol: " ^ m))
      | Ok (Proto.Hello _) -> reply (refuse "protocol: a second greeting")
      | Ok Proto.Ping ->
        reply Proto.Pong;
        loop ()
      | Ok Proto.Stats ->
        reply (Proto.Stats_reply (stats t));
        loop ()
      | Ok Proto.Shutdown ->
        reply Proto.Shutting_down;
        shutdown t
      (* Cache traffic is served inline by this reader thread, never
         queued: lookups are cheap (the store is internally
         synchronized) and a build farm's cache requests must not sit
         behind build requests.  The gate is held shared so a chaos
         request's [reopen_store] cannot swap the store out from under
         us, and [session_lock] covers reading the current handle. *)
      | Ok (Proto.Cache_get { key }) ->
        let data =
          with_shared t.gate @@ fun () ->
          with_store t (Option.fold ~none:None ~some:(fun s -> Store.find s key))
        in
        if Obs.enabled () then
          Obs.tick "server"
            (match data with Some _ -> "cache_hits" | None -> "cache_misses")
            1;
        reply
          (match data with
          | Some data -> Proto.Cache_hit { data }
          | None -> Proto.Cache_miss);
        loop ()
      | Ok (Proto.Cache_put { key; data }) ->
        (with_shared t.gate @@ fun () ->
         with_store t (Option.iter (fun s -> Store.add s key data)));
        if Obs.enabled () then Obs.tick "server" "cache_puts" 1;
        reply Proto.Cache_stored;
        loop ()
      (* Cohort traffic is served inline for the same reason as the
         cache pair.  The shared gate keeps a chaos request's fault
         plan away from the packs' durable writes. *)
      | Ok
          (( Proto.Cohort_list | Proto.Cohort_ingest _ | Proto.Cohort_pull _
           | Proto.Cohort_diff _ ) as req) ->
        reply
          (with_shared t.gate (fun () ->
               serve_cohort ~lock:t.profile_lock t.cohorts req));
        loop ()
      | Ok (Proto.Build b) ->
        if Obs.enabled () then Obs.tick "server" "requests" 1;
        let cost = source_lines b.Proto.sources in
        retain ();
        let job =
          {
            req = b;
            reply =
              (fun resp ->
                reply resp;
                release ());
          }
        in
        if Sched.submit t.sched ~cost job then begin
          Atomic.incr t.accepted;
          if Obs.enabled () then
            Obs.sample "server.queue"
              [ ("depth", float_of_int (Sched.depth t.sched)) ]
        end
        else begin
          release ();
          Atomic.incr t.rejected;
          if Obs.enabled () then Obs.tick "server" "rejected" 1;
          let reason =
            if Atomic.get t.stop then "shutting down" else "queue full"
          in
          reply (Proto.Rejected { tag = b.Proto.tag; reason })
        end;
        loop ())
  in
  (* A refused connection's frames are answered with the reason and
     never decoded: a client of another build is refused by name, not
     misread in a layout it does not share. *)
  let rec refusing reason =
    reply (refuse reason);
    Option.iter (fun _ -> refusing reason) (next ())
  in
  let refused reason =
    Log.warn (fun f -> f "conn %d: refusing the client: %s" id reason);
    "cmocd refused this client: " ^ reason
  in
  (* The first frame must be a greeting that passes [Greeting.check].
     It gets no answer, so the client sends it ahead of its first
     request. *)
  let greeted () =
    match Option.map Proto.request_of_string (next ()) with
    | None -> ()
    | Some (Ok (Proto.Hello g)) -> (
      match Greeting.check ~expect:t.expect g with
      | Ok () -> loop ()
      | Error reason ->
        let reason = refused reason in
        Option.iter (fun _ -> refusing reason) (next ()))
    | Some _ ->
      refusing
        (refused
           (Printf.sprintf
              "no greeting before its first request (a cmoc of another \
               build?); this daemon expects build identity %s"
              t.expect))
  in
  Fun.protect greeted ~finally:retire

let accept_loop t =
  let next_conn = ref 0 in
  let drain_buf = Bytes.create 8 in
  (* Park in select on the listen fd plus the self-pipe rather than
     in accept(2) itself: [shutdown]'s wake byte then interrupts the
     wait deterministically, whatever happened to the socket file.
     The listen fd is non-blocking, so a connection aborted between
     select and accept cannot re-park us. *)
  let rec loop () =
    if Atomic.get t.stop then ()
    else
      match Unix.select [ t.listen_fd; t.wake_r ] [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ -> ()
      | ready, _, _ ->
        if List.mem t.wake_r ready then
          (try ignore (Unix.read t.wake_r drain_buf 0 (Bytes.length drain_buf))
           with Unix.Unix_error _ -> ());
        if Atomic.get t.stop then ()
        else if List.mem t.listen_fd ready then (
          match Unix.accept t.listen_fd with
          | exception
              Unix.Unix_error
                ( (Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK
                  | Unix.ECONNABORTED),
                  _, _ ) ->
            loop ()
          | exception Unix.Unix_error _ -> ()
          | fd, _ ->
            incr next_conn;
            let id = !next_conn in
            Mutex.protect t.conns_lock (fun () -> Hashtbl.replace t.conns id fd);
            ignore (Thread.create (fun () -> conn_loop t id fd) ());
            loop ())
        else loop ()
  in
  loop ()

let start ?(handle_signals = false) cfg =
  if cfg.builders < 1 then invalid_arg "Server.start: builders < 1";
  let tcp = Netio.tcp_of_socket cfg.socket in
  (* A stale socket file from a dead daemon would make bind fail —
     but only unlink it after probing that nothing answers on it, so
     a second cmocd pointed at a live daemon's socket refuses to
     start instead of silently hijacking the path.  (TCP needs no
     probe: the kernel's EADDRINUSE already distinguishes live from
     stale.) *)
  if tcp = None && Sys.file_exists cfg.socket then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let verdict =
      Fun.protect
        ~finally:(fun () ->
          try Unix.close probe with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.connect probe (Unix.ADDR_UNIX cfg.socket) with
          | () -> `Live
          | exception
              Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
            `Stale
          | exception Unix.Unix_error _ ->
            (* Not a connectable socket (e.g. a regular file); leave
               it alone and let bind report the conflict. *)
            `Other)
    in
    match verdict with
    | `Live -> raise (Unix.Unix_error (Unix.EADDRINUSE, "connect", cfg.socket))
    | `Stale -> (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ())
    | `Other -> ()
  end;
  Fsio.mkdirs cfg.state_dir;
  if cfg.trace <> None then Obs.start ();
  let ws =
    Cmo_driver.Buildsys.create ?cache_capacity:cfg.cache_capacity
      ~dir:cfg.state_dir ()
  in
  let session = Buildsys.open_session ~naim:true ws in
  let listen_fd, address =
    match tcp with
    | Some (host, port) -> (
      match Netio.listen ~backlog:64 host port with
      | fd, actual -> (fd, "tcp:" ^ Netio.format_addr host actual)
      | exception e ->
        Buildsys.close_session session;
        raise e)
    | None ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.bind fd (Unix.ADDR_UNIX cfg.socket);
         Unix.listen fd 64
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         Buildsys.close_session session;
         raise e);
      (fd, cfg.socket)
  in
  Unix.set_nonblock listen_fd;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (* Deliver SIGINT/SIGTERM to the main thread only: the spawned
     threads inherit a mask blocking them, so the kernel cannot hand
     the signal to a thread parked in accept(2) or a condvar, where
     the OCaml-level handler would never get a safepoint to run. *)
  let old_mask =
    try Thread.sigmask Unix.SIG_BLOCK [ Sys.sigint; Sys.sigterm ]
    with Invalid_argument _ -> []
  in
  ignore old_mask;
  let t =
    {
      cfg;
      address;
      expect = Greeting.expected Options.env;
      listen_fd;
      wake_r;
      wake_w;
      session;
      session_lock = Mutex.create ();
      profile_lock = Mutex.create ();
      cohorts = registry ~state_dir:cfg.state_dir;
      store_hits_base = 0;
      store_misses_base = 0;
      sched = Sched.create ~queue_max:cfg.queue_max ();
      gate = gate_create ();
      stop = Atomic.make false;
      accepted = Atomic.make 0;
      completed = Atomic.make 0;
      failed = Atomic.make 0;
      rejected = Atomic.make 0;
      inflight = Atomic.make 0;
      conns = Hashtbl.create 16;
      conns_lock = Mutex.create ();
      accept_thread = None;
      builder_threads = [];
    }
  in
  t.builder_threads <-
    List.init cfg.builders (fun _ -> Thread.create builder_loop t);
  t.accept_thread <- Some (Thread.create accept_loop t);
  (* Handlers must be in place before the signals are unblocked, or a
     signal in the window dies with default disposition — no drain,
     socket file left behind. *)
  if handle_signals then begin
    let handler _ = shutdown t in
    (try ignore (Sys.signal Sys.sigint (Sys.Signal_handle handler))
     with Invalid_argument _ | Sys_error _ -> ());
    (try ignore (Sys.signal Sys.sigterm (Sys.Signal_handle handler))
     with Invalid_argument _ | Sys_error _ -> ())
  end;
  (try ignore (Thread.sigmask Unix.SIG_UNBLOCK [ Sys.sigint; Sys.sigterm ])
   with Invalid_argument _ -> ());
  Log.info (fun f ->
      f "listening on %s (%d builder(s), queue <= %d)" address cfg.builders
        cfg.queue_max);
  t

let address t = t.address

let stopped t = Atomic.get t.stop

let wait t =
  (* Poll rather than park in Thread.join right away: a thread blocked
     in pthread_join never reaches an OCaml safepoint, so a signal
     handler (the daemon's shutdown path) would never run.  Sleeping
     is interruptible and re-enters OCaml each tick. *)
  while not (Atomic.get t.stop) do
    Unix.sleepf 0.05
  done;
  Option.iter Thread.join t.accept_thread;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  List.iter Thread.join t.builder_threads;
  (* In-flight and queued work is done; cut the remaining readers
     loose (their threads exit on the resulting EOF/error). *)
  let fds =
    Mutex.protect t.conns_lock (fun () ->
        Hashtbl.fold (fun _ fd acc -> fd :: acc) t.conns [])
  in
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    fds;
  Buildsys.close_session t.session;
  if Netio.tcp_of_socket t.cfg.socket = None && Sys.file_exists t.cfg.socket
  then (try Unix.unlink t.cfg.socket with Unix.Unix_error _ -> ());
  (match t.cfg.trace with
  | None -> ()
  | Some path ->
    (try Fsio.atomic_write path (Obs.export ())
     with Sys_error m ->
       Log.warn (fun f -> f "trace not written to %s (%s)" path m));
    Obs.stop ());
  Log.info (fun f -> f "shutdown complete")

let run cfg = wait (start ~handle_signals:true cfg)
