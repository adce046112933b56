module Ilmod = Cmo_il.Ilmod
module Func = Cmo_il.Func
module Callgraph = Cmo_il.Callgraph
module Ilcodec = Cmo_il.Ilcodec
module Codec = Cmo_support.Codec
module Fsio = Cmo_support.Fsio
module Netio = Cmo_support.Netio
module Faults = Cmo_support.Faults
module Obs = Cmo_obs.Obs
module Loader = Cmo_naim.Loader
module Memstats = Cmo_naim.Memstats
module Hlo = Cmo_hlo.Hlo
module Inline = Cmo_hlo.Inline
module Ipa = Cmo_hlo.Ipa
module Ilcheck = Cmo_check.Ilcheck

let log_src = Logs.Src.create "cmo.dist" ~doc:"distributed CMO workers"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* --- the shared partition optimizer ------------------------------- *)

(* A loader-backed resolution environment: function arities straight
   from the pool headers (clones included, IPA-removed routines
   absent — exactly the NAIM ownership the verifier polices) and the
   globals of every registered module. *)
let loader_env loader =
  {
    Ilcheck.resolve =
      (fun name ->
        match Loader.arity_of loader name with
        | Some arity -> Some (Ilcheck.Func_binding { arity })
        | None ->
          Option.map
            (fun size -> Ilcheck.Global_binding { size })
            (Loader.global_size_of loader name));
  }

let optimize_subset ?phase_cache ?naim_repo ?hot_filter ?check_base
    ~(options : Options.t) ~externally_called ~externally_stored ~mem subset =
  let cg = Callgraph.build subset in
  (* Everything that reads module function lists must run before
     registration: the loader takes ownership and empties them. *)
  let main_in_set =
    List.exists
      (fun (m : Ilmod.t) ->
        List.exists (fun f -> f.Func.name = "main") m.Ilmod.funcs)
      subset
  in
  let loader_config =
    {
      Loader.default_config with
      Loader.machine_memory = options.Options.machine_memory;
      forced_level = options.Options.naim_level;
    }
  in
  let loader = Loader.create ?repo:naim_repo loader_config mem in
  List.iter (Loader.register_module loader) subset;
  let check =
    match check_base with
    | Some outside when options.Options.check ->
      let env =
        Parwork.memo_locked (fun () -> Ilcheck.compose (loader_env loader) (outside ()))
      in
      Some (fun ~phase f -> Ilcheck.check_func_exn ~env:(env ()) ~phase f)
    | Some _ | None -> None
  in
  let ipa_context =
    {
      Ipa.externally_called;
      externally_stored;
      entry = (if main_in_set then Some "main" else None);
      keep_exported = true;
    }
  in
  let base_options = Hlo.o4_options ~profile:options.Options.pbo in
  let inline_config =
    let config =
      match options.Options.inline_config with
      | Some c -> c
      | None -> (
        match base_options.Hlo.inline with
        | Some c -> c
        | None -> Inline.default_config)
    in
    { config with Inline.operation_limit = options.Options.inline_limit }
  in
  let hlo_options =
    {
      base_options with
      Hlo.inline = Some inline_config;
      hot_filter;
      rewrite_limit = options.Options.rewrite_limit;
      phase_cache;
      check;
    }
  in
  let report = Hlo.run loader cg ~ipa_context hlo_options in
  let optimized = Loader.extract_modules loader in
  let lstats = Loader.stats loader in
  Loader.close loader;
  (optimized, report, lstats)

(* --- wire messages ------------------------------------------------ *)

(* The IL-codec generation this binary speaks.  Bumped whenever any
   wire payload changes shape (job options, module encoding, message
   set); a worker whose [wire_version] differs from the parent's is
   version-skewed and must be refused, never mixed into artifacts. *)
let wire_version = 2

type hello = {
  h_wire : int;  (* the worker's [wire_version] *)
  h_digest : string;  (* the worker's build identity *)
}

type job = {
  job_options : Options.t;
  job_modules : string list;
  job_called : string list;
  job_stored : string list;
  job_hot : string list option;
  job_phase_cache : bool;
}

type mem_summary = { ms_resident : int list; ms_peak : int; ms_peak_hlo : int }

type done_payload = {
  done_modules : string list;
  done_report : Hlo.report;
  done_lstats : Loader.stats;
  done_mem : mem_summary;
}

type parent_msg =
  | Job of job
  | Have of string option
  | Ack
  | Bye
  | Refuse of string

type worker_msg =
  | Need of string
  | Keep of string * string
  | Done of done_payload
  | Fail of string
  | Hello of hello
  | Pulse

let write_report w (r : Hlo.report) =
  Codec.Writer.uvarint w r.Hlo.clones;
  Codec.Writer.option w
    (fun (s : Inline.stats) ->
      Codec.Writer.uvarint w s.Inline.operations;
      Codec.Writer.uvarint w s.Inline.cross_module;
      Codec.Writer.varint w s.Inline.bytes_grown;
      Codec.Writer.uvarint w s.Inline.rejected_too_big;
      Codec.Writer.uvarint w s.Inline.rejected_cold;
      Codec.Writer.uvarint w s.Inline.rejected_recursive;
      Codec.Writer.uvarint w s.Inline.rejected_caller_full)
    r.Hlo.inline_stats;
  Codec.Writer.option w
    (fun (s : Ipa.stats) ->
      Codec.Writer.uvarint w s.Ipa.const_params;
      Codec.Writer.uvarint w s.Ipa.const_global_loads;
      Codec.Writer.list w (Codec.Writer.string w) s.Ipa.dead_functions)
    r.Hlo.ipa_stats;
  Codec.Writer.uvarint w r.Hlo.funcs_optimized;
  Codec.Writer.uvarint w r.Hlo.funcs_skipped;
  Codec.Writer.uvarint w r.Hlo.rewrites

let read_report r =
  let clones = Codec.Reader.uvarint r in
  let inline_stats =
    Codec.Reader.option r (fun r ->
        let operations = Codec.Reader.uvarint r in
        let cross_module = Codec.Reader.uvarint r in
        let bytes_grown = Codec.Reader.varint r in
        let rejected_too_big = Codec.Reader.uvarint r in
        let rejected_cold = Codec.Reader.uvarint r in
        let rejected_recursive = Codec.Reader.uvarint r in
        let rejected_caller_full = Codec.Reader.uvarint r in
        {
          Inline.operations;
          cross_module;
          bytes_grown;
          rejected_too_big;
          rejected_cold;
          rejected_recursive;
          rejected_caller_full;
        })
  in
  let ipa_stats =
    Codec.Reader.option r (fun r ->
        let const_params = Codec.Reader.uvarint r in
        let const_global_loads = Codec.Reader.uvarint r in
        let dead_functions = Codec.Reader.list r Codec.Reader.string in
        { Ipa.const_params; const_global_loads; dead_functions })
  in
  let funcs_optimized = Codec.Reader.uvarint r in
  let funcs_skipped = Codec.Reader.uvarint r in
  let rewrites = Codec.Reader.uvarint r in
  { Hlo.clones; inline_stats; ipa_stats; funcs_optimized; funcs_skipped; rewrites }

let write_lstats w (s : Loader.stats) =
  Codec.Writer.uvarint w s.Loader.acquires;
  Codec.Writer.uvarint w s.Loader.cache_hits;
  Codec.Writer.uvarint w s.Loader.uncompactions;
  Codec.Writer.uvarint w s.Loader.repo_loads;
  Codec.Writer.uvarint w s.Loader.compactions;
  Codec.Writer.uvarint w s.Loader.offloads;
  Codec.Writer.uvarint w s.Loader.symtab_compactions

let read_lstats r =
  let acquires = Codec.Reader.uvarint r in
  let cache_hits = Codec.Reader.uvarint r in
  let uncompactions = Codec.Reader.uvarint r in
  let repo_loads = Codec.Reader.uvarint r in
  let compactions = Codec.Reader.uvarint r in
  let offloads = Codec.Reader.uvarint r in
  let symtab_compactions = Codec.Reader.uvarint r in
  {
    Loader.acquires;
    cache_hits;
    uncompactions;
    repo_loads;
    compactions;
    offloads;
    symtab_compactions;
  }

let write_mem w m =
  Codec.Writer.list w (Codec.Writer.uvarint w) m.ms_resident;
  Codec.Writer.uvarint w m.ms_peak;
  Codec.Writer.uvarint w m.ms_peak_hlo

let read_mem r =
  let ms_resident = Codec.Reader.list r Codec.Reader.uvarint in
  let ms_peak = Codec.Reader.uvarint r in
  let ms_peak_hlo = Codec.Reader.uvarint r in
  if List.length ms_resident <> List.length Memstats.all_categories then
    Codec.Reader.corrupt "mem summary category count";
  { ms_resident; ms_peak; ms_peak_hlo }

let encoded f v =
  let w = Codec.Writer.create () in
  f w v;
  Codec.Writer.contents w

let decoded name f s =
  let r = Codec.Reader.of_string s in
  let v = f r in
  if not (Codec.Reader.at_end r) then
    Codec.Reader.corrupt (name ^ ": trailing bytes");
  v

let encode_parent =
  encoded (fun w -> function
    | Job j ->
      Codec.Writer.byte w 1;
      Options.encode w j.job_options;
      Codec.Writer.list w (Codec.Writer.string w) j.job_modules;
      Codec.Writer.list w (Codec.Writer.string w) j.job_called;
      Codec.Writer.list w (Codec.Writer.string w) j.job_stored;
      Codec.Writer.option w
        (Codec.Writer.list w (Codec.Writer.string w))
        j.job_hot;
      Codec.Writer.bool w j.job_phase_cache
    | Have data ->
      Codec.Writer.byte w 2;
      Codec.Writer.option w (Codec.Writer.string w) data
    | Ack -> Codec.Writer.byte w 3
    | Bye -> Codec.Writer.byte w 4
    | Refuse reason ->
      Codec.Writer.byte w 5;
      Codec.Writer.string w reason)

let decode_parent =
  decoded "parent message" (fun r ->
      match Codec.Reader.byte r with
      | 1 ->
        let job_options = Options.decode r in
        let job_modules = Codec.Reader.list r Codec.Reader.string in
        let job_called = Codec.Reader.list r Codec.Reader.string in
        let job_stored = Codec.Reader.list r Codec.Reader.string in
        let job_hot =
          Codec.Reader.option r (fun r ->
              Codec.Reader.list r Codec.Reader.string)
        in
        let job_phase_cache = Codec.Reader.bool r in
        Job
          {
            job_options;
            job_modules;
            job_called;
            job_stored;
            job_hot;
            job_phase_cache;
          }
      | 2 -> Have (Codec.Reader.option r Codec.Reader.string)
      | 3 -> Ack
      | 4 -> Bye
      | 5 -> Refuse (Codec.Reader.string r)
      | n -> Codec.Reader.corrupt (Printf.sprintf "bad parent tag %d" n))

let encode_worker =
  encoded (fun w -> function
    | Need key ->
      Codec.Writer.byte w 1;
      Codec.Writer.string w key
    | Keep (key, data) ->
      Codec.Writer.byte w 2;
      Codec.Writer.string w key;
      Codec.Writer.string w data
    | Done d ->
      Codec.Writer.byte w 3;
      Codec.Writer.list w (Codec.Writer.string w) d.done_modules;
      write_report w d.done_report;
      write_lstats w d.done_lstats;
      write_mem w d.done_mem
    | Fail reason ->
      Codec.Writer.byte w 4;
      Codec.Writer.string w reason
    | Hello h ->
      Codec.Writer.byte w 5;
      Codec.Writer.uvarint w h.h_wire;
      Codec.Writer.string w h.h_digest
    | Pulse -> Codec.Writer.byte w 6)

let decode_worker =
  decoded "worker message" (fun r ->
      match Codec.Reader.byte r with
      | 1 -> Need (Codec.Reader.string r)
      | 2 ->
        let key = Codec.Reader.string r in
        let data = Codec.Reader.string r in
        Keep (key, data)
      | 3 ->
        let done_modules = Codec.Reader.list r Codec.Reader.string in
        let done_report = read_report r in
        let done_lstats = read_lstats r in
        let done_mem = read_mem r in
        Done { done_modules; done_report; done_lstats; done_mem }
      | 4 -> Fail (Codec.Reader.string r)
      | 5 ->
        let h_wire = Codec.Reader.uvarint r in
        let h_digest = Codec.Reader.string r in
        Hello { h_wire; h_digest }
      | 6 -> Pulse
      | n -> Codec.Reader.corrupt (Printf.sprintf "bad worker tag %d" n))

(* --- memory-accountant transport ---------------------------------- *)

let summary_of_memstats m =
  {
    ms_resident = List.map (Memstats.resident_of m) Memstats.all_categories;
    ms_peak = Memstats.peak m;
    ms_peak_hlo = Memstats.peak_hlo m;
  }

(* Replay a charge/release sequence that leaves the reconstructed
   accountant with exactly the worker's per-category residency, peak
   and HLO peak, so [Memstats.merge] folds it as it would have folded
   the worker's own instance.  Order matters: the non-Llo categories
   go first so the transient Derived charge reproduces [peak_hlo]
   (total resident never exceeds it at that point), then Llo and a
   transient Llo charge lift the overall peak. *)
let memstats_of_summary s =
  let m = Memstats.create () in
  let llo = ref 0 in
  List.iter2
    (fun cat n ->
      if cat = Memstats.Llo then llo := n
      else if n > 0 then Memstats.charge m cat n)
    Memstats.all_categories s.ms_resident;
  let dh = s.ms_peak_hlo - Memstats.hlo_resident m in
  if dh > 0 then begin
    Memstats.charge m Memstats.Derived dh;
    Memstats.release m Memstats.Derived dh
  end;
  if !llo > 0 then Memstats.charge m Memstats.Llo !llo;
  let dp = s.ms_peak - Memstats.resident m in
  if dp > 0 then begin
    Memstats.charge m Memstats.Llo dp;
    Memstats.release m Memstats.Llo dp
  end;
  m

(* --- counters ----------------------------------------------------- *)

let jobs_counter = Atomic.make 0
let lost_counter = Atomic.make 0
let events_counter = Atomic.make 0
let refused_counter = Atomic.make 0
let stragglers_counter = Atomic.make 0
let retired_counter = Atomic.make 0
let jobs_total () = Atomic.get jobs_counter
let lost_total () = Atomic.get lost_counter
let events_total () = Atomic.get events_counter
let refused_total () = Atomic.get refused_counter
let stragglers_total () = Atomic.get stragglers_counter
let retired_total () = Atomic.get retired_counter

(* Bump a process-lifetime counter and its [dist/<series>] Obs twin,
   so a traced build's report accounts for its own distribution. *)
let count counter series =
  Atomic.incr counter;
  Obs.tick "dist" series 1

(* --- the worker side ---------------------------------------------- *)

exception Relay_broken

let run_job_local ~phase_cache (job : job) =
  let options = job.job_options in
  let modules = List.map Ilcodec.decode_module job.job_modules in
  let table names =
    let h = Hashtbl.create 64 in
    List.iter (fun n -> Hashtbl.replace h n ()) names;
    h
  in
  let called = table job.job_called in
  let stored = table job.job_stored in
  let hot_filter =
    Option.map (fun names -> Hashtbl.mem (table names)) job.job_hot
  in
  let mem = Memstats.create () in
  let optimized, report, lstats =
    optimize_subset ?phase_cache ?hot_filter ~options
      ~externally_called:(Hashtbl.mem called)
      ~externally_stored:(Hashtbl.mem stored) ~mem modules
  in
  {
    done_modules = List.map Ilcodec.encode_module optimized;
    done_report = report;
    done_lstats = lstats;
    done_mem = summary_of_memstats mem;
  }

(* The fingerprint this worker reports in its [Hello]: the build
   identity compiled into it, overridable through [$CMO_WORKER_FP]
   (the skew tests' lever — a spawned worker inherits the parent's
   environment, so the override makes the {e reported} fingerprint
   diverge from the identity the parent expects). *)
let self_fingerprint () =
  Option.value Options.env.Options.env_worker_fp ~default:Cmo_buildid.id

(* Run [f] while a background thread sends [Pulse] every [hb] seconds
   — proof of life during a long optimization, so the parent can tell
   a straggler (alive but past its deadline) from a dead peer.  Sends
   go through the caller's lock-serialized [send], so a pulse can
   never interleave with a relay frame.  The pulse thread parks in
   select(2) on a wake pipe rather than sleeping in ticks: when [f]
   ends, one byte on the pipe releases it at once, so the join never
   holds the job's [Done] back. *)
let with_pulses ~hb ~send f =
  if hb <= 0.0 then f ()
  else begin
    let wake_r, wake_w = Unix.pipe ~cloexec:true () in
    let rec pulse_until due =
      let remain = Float.max 0.0 (due -. Unix.gettimeofday ()) in
      match Unix.select [ wake_r ] [] [] remain with
      | [], _, _ -> (
        match send Pulse with
        | () -> pulse_until (Unix.gettimeofday () +. hb)
        | exception _ -> ())
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pulse_until due
    in
    let th = Thread.create pulse_until (Unix.gettimeofday () +. hb) in
    Fun.protect
      ~finally:(fun () ->
        ignore (Unix.write_substring wake_w "!" 0 1);
        Thread.join th;
        Unix.close wake_r;
        Unix.close wake_w)
      f
  end

(* Serve one parent conversation on an fd pair (a socketpair to a
   spawned worker, or one accepted TCP connection).  Returns the exit
   status: 0 for a clean goodbye (Bye, EOF or a version refusal), 2
   for a protocol violation. *)
let serve_conn in_fd out_fd =
  let send_lock = Mutex.create () in
  let send msg =
    Mutex.lock send_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock send_lock)
      (fun () ->
        try Fsio.write_framed out_fd (encode_worker msg)
        with Unix.Unix_error _ | Sys_error _ -> raise Relay_broken)
  in
  let recv () =
    match Fsio.read_framed in_fd with
    | Ok payload -> (
      try Some (decode_parent payload)
      with Codec.Reader.Corrupt _ -> raise Relay_broken)
    | Error `Eof -> None
    | Error (`Bad _ | `Timeout) -> raise Relay_broken
  in
  (* The phase-cache relay: every find/add the optimizer performs
     becomes a strict request/reply exchange with the parent, which
     logs it into the partition's store transaction in this exact
     order — the op log, not the process boundary, decides the store
     bytes. *)
  let relay_cache =
    {
      Hlo.pc_find =
        (fun key ->
          send (Need key);
          match recv () with
          | Some (Have data) -> data
          | Some _ | None -> raise Relay_broken);
      pc_add =
        (fun key data ->
          send (Keep (key, data));
          match recv () with
          | Some Ack -> ()
          | Some _ | None -> raise Relay_broken);
    }
  in
  let hb = Options.env.Options.env_worker_hb in
  let slow = Options.env.Options.env_worker_slow_s in
  let rec serve () =
    match recv () with
    | None | Some Bye -> 0
    | Some (Refuse reason) ->
      Log.warn (fun m -> m "parent refused this worker: %s" reason);
      0
    | Some (Have _ | Ack) -> 2
    | Some (Job job) -> (
      let phase_cache = if job.job_phase_cache then Some relay_cache else None in
      let work () =
        if slow > 0.0 then Thread.delay slow;
        run_job_local ~phase_cache job
      in
      match with_pulses ~hb ~send work with
      | payload ->
        send (Done payload);
        serve ()
      | exception Relay_broken -> 2
      | exception e ->
        (* A genuine optimization failure: report it and keep serving —
           the parent degrades this partition to a local run, which
           reproduces the same failure with its real diagnostics. *)
        send (Fail (Printexc.to_string e));
        serve ())
  in
  try
    (* The mandatory handshake: version and identity first, before any
       job bytes, so a skewed worker is refused before it can touch an
       artifact. *)
    send (Hello { h_wire = wire_version; h_digest = self_fingerprint () });
    serve ()
  with Relay_broken -> 2

let worker_main in_fd out_fd =
  if Sys.os_type <> "Win32" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  exit (serve_conn in_fd out_fd)

let worker_listen ?port_file host port =
  if Sys.os_type <> "Win32" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd, actual = Netio.listen host port in
  (* The parseable "where am I" line tooling scrapes (port 0 binds an
     ephemeral port); the optional port file is the race-free variant. *)
  Printf.printf "cmoc-worker: listening on %s\n%!" (Netio.format_addr host actual);
  (match port_file with
  | Some path -> Fsio.atomic_write path (string_of_int actual ^ "\n")
  | None -> ());
  let rec accept_loop () =
    match Netio.accept fd with
    | conn, _ ->
      (* One thread per conversation: a fleet parent dials one
         connection per concurrent job, and a stalled conversation
         must not block the next accept. *)
      ignore
        (Thread.create
           (fun () ->
             (try ignore (serve_conn conn conn) with _ -> ());
             try Unix.close conn with Unix.Unix_error _ -> ())
           ());
      accept_loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
  in
  accept_loop ()

(* --- the parent side ---------------------------------------------- *)

(* A remote worker machine: dialed on demand (several concurrent
   connections are fine — the listener serves each in a thread), with
   a consecutive-loss circuit breaker.  [breaker_limit] straight
   losses retire the endpoint for the rest of the pool's life; any
   completed job resets the count. *)
type endpoint = {
  ep_addr : string;  (* as configured, "host:port" *)
  ep_host : string;
  ep_port : int;
  mutable ep_fails : int;  (* consecutive losses *)
  mutable ep_retired : bool;
}

let breaker_limit = 3

type wkind =
  | Proc of int  (* a spawned local worker, by pid *)
  | Net of endpoint  (* one connection to a remote worker *)

type worker_conn = { kind : wkind; fd : Unix.file_descr }

type pool = {
  bin : string option;  (* None: no local binary, endpoints only *)
  expect_fp : string;  (* the fingerprint Hello must report *)
  timeout_s : float;
  deadline_s : float option;  (* straggler redo bound per job *)
  endpoints : endpoint list;
  rr : int Atomic.t;  (* round-robin dial cursor *)
  lock : Mutex.t;
  local_refused : bool Atomic.t;  (* the local binary failed handshake *)
  local_slots : Semaphore.Counting.t;
      (* [jobs] of them: every partition running on this host holds
         one, in a spawned worker or redone in-process after a loss *)
  mutable idle : worker_conn list;
  mutable conns : worker_conn list;
}

exception Worker_lost
exception Unavailable of string

let resolve_worker (env : Options.env) =
  match env.Options.env_dist_worker with
  | Some p -> p
  | None ->
    let dir = Filename.dirname Sys.executable_name in
    let sibling = Filename.concat dir "cmoc_worker.exe" in
    if Sys.file_exists sibling then sibling
    else
      Filename.concat
        (Filename.concat (Filename.concat dir Filename.parent_dir_name) "bin")
        "cmoc_worker.exe"

(* The fingerprint the parent demands in every [Hello]:
   [$CMO_DIST_EXPECT_FP] when set (fleet deployments pin it), else this
   process's own build identity — which every worker built from the
   same tree reports, whether or not a local worker binary exists. *)
let expected_fingerprint (env : Options.env) =
  Option.value env.Options.env_dist_expect_fp ~default:Cmo_buildid.id

let create_pool ?(jobs = 1) ?timeout_s ?workers () =
  if Sys.os_type <> "Win32" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Env knobs are re-read per pool (not the process-start snapshot in
     [Options.env]): the robustness suites flip them between builds
     inside one process. *)
  let dyn = Options.from_env () in
  let timeout_s =
    match timeout_s with
    | Some t -> t
    | None -> (
      match dyn.Options.env_dist_timeout with Some t -> t | None -> 60.0)
  in
  let workers =
    match workers with
    | Some ws -> ws
    | None -> dyn.Options.env_dist_workers
  in
  let endpoints =
    List.filter_map
      (fun addr ->
        match Netio.parse_addr addr with
        | Ok (h, p) ->
          Some
            { ep_addr = addr; ep_host = h; ep_port = p; ep_fails = 0;
              ep_retired = false }
        | Error m ->
          Log.warn (fun f -> f "ignoring worker endpoint: %s" m);
          None)
      workers
  in
  let path = resolve_worker dyn in
  let bin = if Sys.file_exists path then Some path else None in
  if bin = None && endpoints = [] then
    raise
      (Unavailable
         (Printf.sprintf "worker binary %s not found and no --workers given"
            path));
  {
    bin;
    expect_fp = expected_fingerprint dyn;
    timeout_s;
    deadline_s = dyn.Options.env_dist_deadline;
    endpoints;
    rr = Atomic.make 0;
    lock = Mutex.create ();
    local_refused = Atomic.make false;
    local_slots = Semaphore.Counting.make (max 1 jobs);
    idle = [];
    conns = [];
  }

let locked pool f =
  Mutex.lock pool.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock pool.lock) f

let same_conn a b = a.fd == b.fd

let with_local_slot pool f =
  Semaphore.Counting.acquire pool.local_slots;
  Fun.protect
    ~finally:(fun () -> Semaphore.Counting.release pool.local_slots)
    f

(* A spawned worker holds a local slot from checkout until it is
   checked in or destroyed. *)
let release_slot pool w =
  match w.kind with
  | Proc _ -> Semaphore.Counting.release pool.local_slots
  | Net _ -> ()

let spawn pool bin =
  let parent_fd, child_fd =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  Unix.clear_close_on_exec child_fd;
  let pid = Unix.create_process bin [| bin |] child_fd child_fd Unix.stderr in
  Unix.close child_fd;
  let w = { kind = Proc pid; fd = parent_fd } in
  locked pool (fun () -> pool.conns <- w :: pool.conns);
  w

(* A consecutive loss on an endpoint; trips the breaker at the
   limit. *)
let note_endpoint_loss pool e =
  locked pool (fun () ->
      e.ep_fails <- e.ep_fails + 1;
      if e.ep_fails >= breaker_limit && not e.ep_retired then begin
        e.ep_retired <- true;
        count retired_counter "retired";
        Log.warn (fun m ->
            m "retiring worker %s after %d consecutive losses" e.ep_addr
              e.ep_fails)
      end)

(* Reap a worker that is gone or no longer trustworthy.  SIGKILL is
   idempotent on an already-dead pid within our waitpid window; a
   remote loss feeds the endpoint's circuit breaker instead. *)
let destroy pool w =
  locked pool (fun () ->
      pool.conns <- List.filter (fun p -> not (same_conn p w)) pool.conns;
      pool.idle <- List.filter (fun p -> not (same_conn p w)) pool.idle);
  release_slot pool w;
  (match w.kind with
  | Proc pid ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
  | Net e -> note_endpoint_loss pool e);
  (try Unix.close w.fd with Unix.Unix_error _ -> ());
  count lost_counter "lost"

(* Consume the mandatory [Hello] on a fresh connection and verify the
   worker's version fingerprint.  A skewed worker is told why
   ([Refuse]) and discarded — its jobs are never mixed into
   artifacts; for a remote endpoint the skew also retires the
   endpoint outright (version skew does not heal by retrying). *)
let handshake pool w =
  let refuse reason =
    count refused_counter "refused";
    Log.warn (fun m ->
        m "refusing %s worker: %s"
          (match w.kind with Proc _ -> "spawned" | Net e -> e.ep_addr)
          reason);
    (try Netio.send w.fd (encode_parent (Refuse reason))
     with Unix.Unix_error _ | Sys_error _ -> ());
    (match w.kind with
    | Proc _ -> Atomic.set pool.local_refused true
    | Net e ->
      locked pool (fun () ->
          if not e.ep_retired then begin
            e.ep_retired <- true;
            count retired_counter "retired"
          end));
    destroy pool w;
    raise Worker_lost
  in
  match Netio.recv ~timeout_s:pool.timeout_s w.fd with
  | Ok payload -> (
    match decode_worker payload with
    | Hello h ->
      if h.h_wire <> wire_version then
        refuse
          (Printf.sprintf "wire version %d, this build speaks %d" h.h_wire
             wire_version)
      else if h.h_digest <> pool.expect_fp then
        refuse
          (Printf.sprintf "build identity %s, expected %s" h.h_digest
             pool.expect_fp)
    | _ ->
      destroy pool w;
      raise Worker_lost
    | exception Codec.Reader.Corrupt _ ->
      destroy pool w;
      raise Worker_lost)
  | Error (`Eof | `Bad _ | `Timeout) ->
    destroy pool w;
    raise Worker_lost

let rotate n xs =
  if xs = [] then []
  else
    let n = n mod List.length xs in
    let rec split i acc = function
      | rest when i = 0 -> rest @ List.rev acc
      | x :: rest -> split (i - 1) (x :: acc) rest
      | [] -> List.rev acc
    in
    split n [] xs

let live_endpoints pool =
  locked pool (fun () ->
      List.filter (fun e -> not e.ep_retired) pool.endpoints)

let width pool = List.length (live_endpoints pool)

(* Take an idle connection of the wanted kind. *)
let take_idle pool wanted =
  locked pool (fun () ->
      match List.find_opt wanted pool.idle with
      | Some w ->
        pool.idle <- List.filter (fun p -> not (same_conn p w)) pool.idle;
        Some w
      | None -> None)

let is_net w = match w.kind with Net _ -> true | Proc _ -> false

(* The fleet first: an idle endpoint connection, else a fresh dial
   (round-robin, so concurrent checkouts start on different
   endpoints).  Only then a local worker, idle or spawned, under one of
   the host's [jobs] slots. *)
let checkout pool =
  let local () =
    Semaphore.Counting.acquire pool.local_slots;
    match take_idle pool (fun w -> not (is_net w)) with
    | Some w -> w
    | None -> (
      match pool.bin with
      | Some bin when not (Atomic.get pool.local_refused) ->
        let w =
          try spawn pool bin
          with e ->
            Semaphore.Counting.release pool.local_slots;
            raise e
        in
        handshake pool w;
        w
      | _ ->
        Semaphore.Counting.release pool.local_slots;
        raise Worker_lost)
  in
  let rec dial = function
    | [] -> local ()
    | e :: rest -> (
      match Netio.connect e.ep_host e.ep_port with
      | fd ->
        let w = { kind = Net e; fd } in
        locked pool (fun () -> pool.conns <- w :: pool.conns);
        (try
           handshake pool w;
           w
         with Worker_lost -> dial rest)
      | exception (Sys_error _ | Unix.Unix_error _) ->
        (* A failed dial is an endpoint loss (feeds the breaker) but
           not a lost job — the next candidate or a local worker can
           still run it. *)
        note_endpoint_loss pool e;
        dial rest)
  in
  match take_idle pool is_net with
  | Some w -> w
  | None -> dial (rotate (Atomic.fetch_and_add pool.rr 1) (live_endpoints pool))

let checkin pool w =
  release_slot pool w;
  locked pool (fun () -> pool.idle <- w :: pool.idle)

(* One protocol event, numbered on the plan's proc clock; at a
   planned [kill@K] the active worker dies mid-conversation — exactly
   what a machine loss at that protocol step looks like to the
   parent. *)
let protocol_event pool w =
  Atomic.incr events_counter;
  match Faults.check Faults.proc with
  | Pass | Tripped -> ()
  | Fire (Kill, k) ->
    Log.debug (fun m -> m "injected kill of the active worker at event %d" k);
    destroy pool w;
    raise Worker_lost

let run_job pool ?phase_cache job =
  let w = checkout pool in
  let started = Unix.gettimeofday () in
  let lose () =
    destroy pool w;
    raise Worker_lost
  in
  (* Straggler redo: the job has a deadline independent of the read
     timeout — heartbeats prove the worker is alive, but a partition
     must not wait on a live-but-slow machine when redoing the work
     locally is cheaper.  Checked against the wall clock at every
     received message (pulses included). *)
  let check_deadline () =
    match pool.deadline_s with
    | Some d when Unix.gettimeofday () -. started > d ->
      count stragglers_counter "stragglers";
      Log.debug (fun m -> m "straggler: job past its %.3fs deadline, redoing" d);
      lose ()
    | _ -> ()
  in
  let send msg =
    protocol_event pool w;
    try Netio.send w.fd (encode_parent msg)
    with Unix.Unix_error _ | Sys_error _ -> lose ()
  in
  let recv () =
    protocol_event pool w;
    match Netio.recv ~timeout_s:pool.timeout_s w.fd with
    | Ok payload -> (
      try decode_worker payload with Codec.Reader.Corrupt _ -> lose ())
    | Error (`Eof | `Bad _ | `Timeout) -> lose ()
  in
  send (Job { job with job_phase_cache = phase_cache <> None });
  let rec wait () =
    match recv () with
    | Pulse ->
      check_deadline ();
      wait ()
    | Hello _ ->
      (* Out-of-band handshake mid-conversation: protocol violation. *)
      lose ()
    | Need key ->
      check_deadline ();
      let data =
        match phase_cache with Some pc -> pc.Hlo.pc_find key | None -> None
      in
      send (Have data);
      wait ()
    | Keep (key, data) ->
      check_deadline ();
      (match phase_cache with
      | Some pc -> pc.Hlo.pc_add key data
      | None -> ());
      send Ack;
      wait ()
    | Done payload ->
      (match w.kind with
      | Net e -> locked pool (fun () -> e.ep_fails <- 0)
      | Proc _ -> ());
      checkin pool w;
      count jobs_counter "jobs";
      payload
    | Fail reason ->
      (* The worker is healthy; the job failed.  Keep the worker,
         count a degradation, and let the local rerun reproduce the
         failure (or, for environment-dependent faults, succeed). *)
      Log.debug (fun m -> m "worker failed job: %s" reason);
      (match w.kind with
      | Net e -> locked pool (fun () -> e.ep_fails <- 0)
      | Proc _ -> ());
      checkin pool w;
      count lost_counter "lost";
      raise Worker_lost
  in
  wait ()

let close_pool pool =
  let ps =
    locked pool (fun () ->
        let ps = pool.conns in
        pool.conns <- [];
        pool.idle <- [];
        ps)
  in
  List.iter
    (fun w ->
      (try Fsio.write_framed w.fd (encode_parent Bye)
       with Unix.Unix_error _ | Sys_error _ -> ());
      (try Unix.close w.fd with Unix.Unix_error _ -> ());
      match w.kind with
      | Proc pid -> (
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      | Net _ -> ())
    ps

(* --- remote artifact cache ---------------------------------------- *)

type remote = {
  remote_get : string -> string option;
  remote_put : string -> string -> unit;
}
