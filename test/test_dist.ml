(* Distributed WHOPR-style CMO, proven byte-invisible: the
   cross-process determinism matrix ({threads, worker processes,
   remote cache} × {O2, O4, O4+P} × {cold, warm} × {j1, j4} against
   the threads-j1 oracle), qcheck fuzz over the new wire messages, a
   worker kill-sweep (SIGKILL at every protocol event; the build
   recovers byte-identical and never hangs), and the remote artifact
   cache end-to-end through a live in-process cmocd. *)

module Options = Cmo_driver.Options
module Pipeline = Cmo_driver.Pipeline
module Distwork = Cmo_driver.Distwork
module Store = Cmo_cache.Store
module Fsio = Cmo_support.Fsio
module Netio = Cmo_support.Netio
module Faults = Cmo_support.Faults
module Codec = Cmo_support.Codec
module Memstats = Cmo_naim.Memstats
module Loader = Cmo_naim.Loader
module Hlo = Cmo_hlo.Hlo
module Inline = Cmo_hlo.Inline
module Ipa = Cmo_hlo.Ipa
module Server = Cmo_server.Server
module Client = Cmo_server.Client
module Vm = Cmo_vm.Vm
module Json = Cmo_obs.Json

(* ---------- scaffolding ---------- *)

let with_dir f = Helpers.with_dir ~prefix:"cmo_dist" f
let same_build = Helpers.same_build
let same_store_bytes = Helpers.same_store_bytes

let with_closed_store dir f =
  let store = Store.open_ ~dir () in
  Fun.protect ~finally:(fun () -> Store.close store) (fun () -> f store)

(* Set an env knob for the callback's lifetime.  [Options.from_env]
   treats the empty string as unset, so restoring an absent variable
   to [""] is a faithful reset. *)
let with_env name value f =
  let old = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv name (Option.value old ~default:""))
    f

let usage (b : Pipeline.build) =
  match b.Pipeline.report.Pipeline.cache with
  | Some c -> c
  | None -> Alcotest.fail "expected cache usage"

(* ---------- the worker binary resolves ---------- *)

(* Fail loudly rather than silently degrading every dist cell to the
   in-process path: the rest of this suite assumes real processes. *)
let test_worker_binary_resolves () =
  let bin = Distwork.resolve_worker (Options.from_env ()) in
  Alcotest.(check bool)
    (Printf.sprintf "worker binary exists at %s" bin)
    true (Sys.file_exists bin)

(* ---------- wire-protocol fuzz ---------- *)

let gen_wire_string = QCheck.Gen.(string_size (int_range 0 16))
let gen_nat = QCheck.Gen.int_range 0 1_000_000

let gen_job =
  QCheck.Gen.(
    let* job_options = Helpers.gen_options in
    let* job_modules = list_size (int_range 0 4) gen_wire_string in
    let* job_called = list_size (int_range 0 4) gen_wire_string in
    let* job_stored = list_size (int_range 0 4) gen_wire_string in
    let* job_hot = option (list_size (int_range 0 3) gen_wire_string) in
    let+ job_phase_cache = bool in
    {
      Distwork.job_options;
      job_modules;
      job_called;
      job_stored;
      job_hot;
      job_phase_cache;
    })

let gen_inline_stats =
  QCheck.Gen.(
    let* operations = gen_nat in
    let* cross_module = gen_nat in
    let* bytes_grown = int_range (-1_000_000) 1_000_000 in
    let* rejected_too_big = gen_nat in
    let* rejected_cold = gen_nat in
    let* rejected_recursive = gen_nat in
    let+ rejected_caller_full = gen_nat in
    {
      Inline.operations;
      cross_module;
      bytes_grown;
      rejected_too_big;
      rejected_cold;
      rejected_recursive;
      rejected_caller_full;
    })

let gen_ipa_stats =
  QCheck.Gen.(
    let* const_params = gen_nat in
    let* const_global_loads = gen_nat in
    let+ dead_functions = list_size (int_range 0 4) gen_wire_string in
    { Ipa.const_params; const_global_loads; dead_functions })

let gen_report =
  QCheck.Gen.(
    let* clones = gen_nat in
    let* inline_stats = option gen_inline_stats in
    let* ipa_stats = option gen_ipa_stats in
    let* funcs_optimized = gen_nat in
    let* funcs_skipped = gen_nat in
    let+ rewrites = gen_nat in
    { Hlo.clones; inline_stats; ipa_stats; funcs_optimized; funcs_skipped; rewrites })

let gen_lstats =
  QCheck.Gen.(
    let* acquires = gen_nat in
    let* cache_hits = gen_nat in
    let* uncompactions = gen_nat in
    let* repo_loads = gen_nat in
    let* compactions = gen_nat in
    let* offloads = gen_nat in
    let+ symtab_compactions = gen_nat in
    {
      Loader.acquires;
      cache_hits;
      uncompactions;
      repo_loads;
      compactions;
      offloads;
      symtab_compactions;
    })

let gen_mem_summary =
  (* The decoder validates the residency list against the category
     count, so a valid summary must carry exactly that many entries. *)
  let ncat = List.length Memstats.all_categories in
  QCheck.Gen.(
    let* ms_resident = list_repeat ncat gen_nat in
    let* ms_peak = gen_nat in
    let+ ms_peak_hlo = gen_nat in
    { Distwork.ms_resident; ms_peak; ms_peak_hlo })

let gen_parent_msg =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun j -> Distwork.Job j) gen_job);
        (3, map (fun d -> Distwork.Have d) (option gen_wire_string));
        (2, return Distwork.Ack);
        (1, return Distwork.Bye);
        (2, map (fun r -> Distwork.Refuse r) gen_wire_string);
      ])

(* Hello fingerprints range over arbitrary strings and wire versions
   over arbitrary naturals — the handshake decoder must survive (and
   round-trip) anything a skewed peer could legitimately encode. *)
let gen_hello =
  QCheck.Gen.(
    map2
      (fun h_wire h_digest -> { Distwork.h_wire; h_digest })
      gen_nat gen_wire_string)

let gen_worker_msg =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun k -> Distwork.Need k) gen_wire_string);
        (2, map2 (fun k v -> Distwork.Keep (k, v)) gen_wire_string gen_wire_string);
        ( 3,
          let* done_modules = list_size (int_range 0 4) gen_wire_string in
          let* done_report = gen_report in
          let* done_lstats = gen_lstats in
          let+ done_mem = gen_mem_summary in
          Distwork.Done { done_modules; done_report; done_lstats; done_mem } );
        (1, map (fun r -> Distwork.Fail r) gen_wire_string);
        (2, map (fun h -> Distwork.Hello h) gen_hello);
        (1, return Distwork.Pulse);
      ])

let parent_tag = function
  | Distwork.Job _ -> "Job"
  | Distwork.Have _ -> "Have"
  | Distwork.Ack -> "Ack"
  | Distwork.Bye -> "Bye"
  | Distwork.Refuse _ -> "Refuse"

let worker_tag = function
  | Distwork.Need _ -> "Need"
  | Distwork.Keep _ -> "Keep"
  | Distwork.Done _ -> "Done"
  | Distwork.Fail _ -> "Fail"
  | Distwork.Hello _ -> "Hello"
  | Distwork.Pulse -> "Pulse"

let parent_arb = QCheck.make ~print:parent_tag gen_parent_msg
let worker_arb = QCheck.make ~print:worker_tag gen_worker_msg

let qcheck_parent_roundtrip =
  QCheck.Test.make ~name:"dist wire: parent messages round-trip" ~count:300
    parent_arb (fun m ->
      Distwork.decode_parent (Distwork.encode_parent m) = m)

let qcheck_worker_roundtrip =
  QCheck.Test.make ~name:"dist wire: worker messages round-trip" ~count:300
    worker_arb (fun m ->
      Distwork.decode_worker (Distwork.encode_worker m) = m)

(* Every strict prefix of a valid encoding is corrupt — the decoders
   never accept a truncated message and never crash some other way. *)
let rejects_truncation decode enc where =
  let k = int_of_float (where *. float_of_int (String.length enc - 1)) in
  match decode (Helpers.truncated enc k) with
  | _ -> false
  | exception Codec.Reader.Corrupt _ -> true

let qcheck_parent_truncation =
  QCheck.Test.make ~name:"dist wire: truncated parent payloads are corrupt"
    ~count:300
    QCheck.(pair parent_arb (make Gen.(float_bound_inclusive 1.0)))
    (fun (m, where) ->
      rejects_truncation Distwork.decode_parent (Distwork.encode_parent m) where)

let qcheck_worker_truncation =
  QCheck.Test.make ~name:"dist wire: truncated worker payloads are corrupt"
    ~count:300
    QCheck.(pair worker_arb (make Gen.(float_bound_inclusive 1.0)))
    (fun (m, where) ->
      rejects_truncation Distwork.decode_worker (Distwork.encode_worker m) where)

(* Arbitrary bytes: decode returns a message or raises [Corrupt] —
   anything else (Invalid_argument, Out_of_memory, a hang) fails. *)
let qcheck_wire_garbage =
  QCheck.Test.make ~name:"dist wire: garbage never crashes the decoders"
    ~count:500
    (QCheck.make
       ~print:(Printf.sprintf "%S")
       QCheck.Gen.(string_size (int_range 0 64)))
    (fun s ->
      let safe decode =
        match decode s with
        | _ -> true
        | exception Codec.Reader.Corrupt _ -> true
      in
      safe Distwork.decode_parent && safe Distwork.decode_worker)

(* A bit flip anywhere in the framed transport encoding is caught by
   the CMR1 scan machinery (magic, length or CRC) before the payload
   decoder ever sees it: [scan_frame] never yields the frame. *)
let qcheck_framed_bitflip =
  QCheck.Test.make ~name:"dist wire: framed bit flips never scan as valid"
    ~count:300
    QCheck.(
      pair parent_arb
        (make Gen.(pair (float_bound_inclusive 1.0) (int_range 1 255))))
    (fun (m, (where, bits)) ->
      let framed = Fsio.frame (Distwork.encode_parent m) in
      let i =
        min
          (String.length framed - 1)
          (int_of_float (where *. float_of_int (String.length framed)))
      in
      match Fsio.scan_frame (Helpers.flip_byte framed i bits) ~pos:0 with
      | Fsio.Frame _ -> false
      | Fsio.Need _ | Fsio.Bad _ -> true)

(* The same faults at the fd level, where the pool actually reads. *)
let test_framed_fd_faults () =
  let with_pair f =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close a with Unix.Unix_error _ -> ());
        try Unix.close b with Unix.Unix_error _ -> ())
      (fun () -> f a b)
  in
  let msg = Distwork.encode_worker (Distwork.Need "some-fingerprint") in
  (* Clean round trip over the wire. *)
  with_pair (fun a b ->
      Fsio.write_framed a msg;
      match Fsio.read_framed b with
      | Ok payload ->
        Alcotest.(check bool) "clean frame decodes" true
          (Distwork.decode_worker payload = Distwork.Need "some-fingerprint")
      | Error _ -> Alcotest.fail "clean frame did not read back");
  (* A flipped byte mid-frame is fatal for the connection. *)
  with_pair (fun a b ->
      let framed = Fsio.frame msg in
      let corrupt = Helpers.flip_byte framed (String.length framed - 2) 0x10 in
      let n = Unix.write_substring a corrupt 0 (String.length corrupt) in
      Alcotest.(check int) "wrote whole frame" (String.length corrupt) n;
      Unix.close a;
      match Fsio.read_framed b with
      | Error (`Bad _) -> ()
      | Ok _ -> Alcotest.fail "corrupt frame read back as valid"
      | Error `Eof -> Alcotest.fail "corrupt frame reported as clean EOF"
      | Error `Timeout -> Alcotest.fail "unexpected timeout");
  (* A close inside a frame (the SIGKILL shape) is [`Bad], not EOF. *)
  with_pair (fun a b ->
      let framed = Fsio.frame msg in
      let cut = String.length framed - 3 in
      ignore (Unix.write_substring a framed 0 cut);
      Unix.close a;
      match Fsio.read_framed b with
      | Error (`Bad _) -> ()
      | other ->
        Alcotest.failf "mid-frame close read as %s"
          (match other with
          | Ok _ -> "Ok"
          | Error `Eof -> "Eof"
          | Error `Timeout -> "Timeout"
          | Error (`Bad _) -> assert false));
  (* A stalled peer trips the bounded timeout — the hang bound. *)
  with_pair (fun _a b ->
      match Fsio.read_framed ~timeout_s:0.05 b with
      | Error `Timeout -> ()
      | _ -> Alcotest.fail "stalled read did not time out")

(* ---------- a TCP worker fleet ---------- *)

(* Spawn [n] real [cmoc-worker --listen] processes on loopback
   ephemeral ports and hand their [host:port] endpoints to [f].  The
   port file (written atomically by the worker once bound) is the
   race-free ready signal.  Workers inherit the test's environment at
   spawn time, which is how the skew and straggler legs plant
   [$CMO_WORKER_*] levers in the fleet.  [with_fleet_pids] also hands
   over each member's pid, for the legs that kill the fleet. *)
let with_fleet_pids n f =
  with_dir @@ fun dir ->
  let bin = Distwork.resolve_worker (Options.from_env ()) in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let members =
    List.init n (fun i ->
        let pf = Filename.concat dir (Printf.sprintf "port%d" i) in
        let pid =
          Unix.create_process bin
            [| bin; "--listen"; "127.0.0.1:0"; "--port-file"; pf |]
            Unix.stdin devnull Unix.stderr
        in
        (pid, pf))
  in
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (pid, _) ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        members)
  @@ fun () ->
  let wait_port pf =
    let deadline = Unix.gettimeofday () +. 10.0 in
    let rec go () =
      match
        if Sys.file_exists pf then
          int_of_string_opt (String.trim (Helpers.read_file pf))
        else None
      with
      | Some port -> Printf.sprintf "127.0.0.1:%d" port
      | None ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "worker never wrote %s" pf
        else begin
          Unix.sleepf 0.02;
          go ()
        end
    in
    go ()
  in
  f (List.map (fun (pid, pf) -> (pid, wait_port pf)) members)

let with_fleet n f = with_fleet_pids n (fun ms -> f (List.map snd ms))

(* ---------- the determinism matrix ---------- *)

(* The four execution modes under test.  [Threads] (the j=1 oracle's
   mode) is test_parallel's subject; here it only anchors the matrix.
   [Tcp] places partitions on a real loopback worker fleet. *)
type mode = Threads | Procs | Tcp of string list | Remote

let mode_name = function
  | Threads -> "threads"
  | Procs -> "procs"
  | Tcp _ -> "tcp"
  | Remote -> "remote"

(* A deterministic in-memory remote cache, fresh per build leg so
   every leg sees the identical remote state its sibling did.  The
   protocol transport itself is exercised against a live cmocd
   below. *)
let memory_remote () =
  let tbl = Hashtbl.create 64 in
  {
    Distwork.remote_get = (fun key -> Hashtbl.find_opt tbl key);
    remote_put = (fun key data -> Hashtbl.replace tbl key data);
  }

let build ~mode ?remote ?profile ?cache options jobs sources =
  let options =
    { options with Options.jobs; dist = (mode <> Threads) }
  in
  let options =
    match mode with
    | Tcp workers -> { options with Options.workers }
    | Threads | Procs | Remote -> options
  in
  let remote = if mode = Remote then remote else None in
  Pipeline.compile ?profile ?cache ?remote options sources

(* One (program, options, mode) cell: uncached, cold-cached and
   warm-cached builds at j=1 and j=4 must all reproduce the
   threads-j1 oracle's artifacts, and — because a fresh remote makes
   every leg's store-op log identical — the store bytes must equal
   the oracle's store bytes across modes, not just across j. *)
let check_mode_cell name ?profile options sources ~oracle ~oracle_dir mode =
  let name = name ^ " [" ^ mode_name mode ^ "]" in
  let fresh_remote () =
    match mode with Remote -> Some (memory_remote ()) | _ -> None
  in
  let b1 = build ~mode ?remote:(fresh_remote ()) ?profile options 1 sources in
  let b4 = build ~mode ?remote:(fresh_remote ()) ?profile options 4 sources in
  same_build (name ^ " uncached j1 = oracle") oracle b1;
  same_build (name ^ " uncached j4 = oracle") oracle b4;
  with_dir (fun d1 ->
      with_dir (fun d4 ->
          let r1 = fresh_remote () and r4 = fresh_remote () in
          let cached dir remote jobs =
            with_closed_store dir (fun store ->
                build ~mode ?remote ?profile ~cache:store options jobs sources)
          in
          let c1 = cached d1 r1 1 in
          let c4 = cached d4 r4 4 in
          same_build (name ^ " cold j1 = oracle") oracle c1;
          same_build (name ^ " cold j4 = oracle") oracle c4;
          Alcotest.(check bool) (name ^ ": cold store bytes j4 = j1") true
            (same_store_bytes d1 d4);
          Alcotest.(check bool) (name ^ ": cold store bytes = oracle's") true
            (same_store_bytes d1 oracle_dir);
          (* Warm rebuilds over each leg's own store and remote. *)
          let w1 = cached d1 r1 1 in
          let w4 = cached d4 r4 4 in
          same_build (name ^ " warm j1 = oracle") oracle w1;
          same_build (name ^ " warm j4 = oracle") oracle w4;
          Alcotest.(check bool) (name ^ ": warm store bytes j4 = j1") true
            (same_store_bytes d1 d4)))

let check_level name ?profile options sources =
  let oracle = build ~mode:Threads ?profile options 1 sources in
  with_dir (fun oracle_dir ->
      ignore
        (with_closed_store oracle_dir (fun store ->
             build ~mode:Threads ?profile ~cache:store options 1 sources));
      with_fleet 2 (fun endpoints ->
          List.iter
            (check_mode_cell name ?profile options sources ~oracle ~oracle_dir)
            [ Procs; Tcp endpoints; Remote ]))

let matrix_sources = Test_parallel.prog_with_rootless

let test_matrix_o2 () = check_level "matrix +O2" Options.o2 matrix_sources
let test_matrix_o4 () = check_level "matrix +O4" Options.o4 matrix_sources

let test_matrix_o4_pbo () =
  let profile = Pipeline.train matrix_sources in
  check_level "matrix +O4+P" ~profile Options.o4_pbo matrix_sources

(* The single-component program ships as one whole-set job — the
   other distribution path. *)
let test_matrix_chain () =
  check_level "matrix chain +O4" Options.o4 Test_parallel.prog_chain

(* Not just identical bytes: real partition jobs completed on worker
   processes, nothing was lost, and the distributed image behaves. *)
let test_dist_jobs_accounted () =
  let jobs0 = Distwork.jobs_total () in
  let lost0 = Distwork.lost_total () in
  let refused0 = Distwork.refused_total () in
  let oracle = build ~mode:Threads Options.o4 1 matrix_sources in
  let b = build ~mode:Procs Options.o4 4 matrix_sources in
  same_build "accounted build = oracle" oracle b;
  Alcotest.(check bool) "partition jobs ran on workers" true
    (Distwork.jobs_total () - jobs0 >= 2);
  Alcotest.(check int) "no workers lost on the clean path" lost0
    (Distwork.lost_total ());
  (* A spawned worker of this tree reports the parent's own build
     identity, so its handshake passes. *)
  Alcotest.(check int) "no spawned worker refused" refused0
    (Distwork.refused_total ());
  let o = Pipeline.run b in
  let oo = Pipeline.run oracle in
  Alcotest.(check bool) "distributed image behaves like the oracle" true
    (o.Vm.output = oo.Vm.output && o.Vm.ret = oo.Vm.ret)

(* ---------- graceful degradation ---------- *)

(* No worker binary: the build warns, runs in-process, and produces
   the oracle's bytes — [dist] is a deployment detail, not a mode. *)
let test_degrades_without_worker () =
  let oracle = build ~mode:Threads Options.o4 1 matrix_sources in
  with_env "CMO_DIST_WORKER" "/nonexistent/cmoc_worker" (fun () ->
      let jobs0 = Distwork.jobs_total () in
      let b = build ~mode:Procs Options.o4 2 matrix_sources in
      same_build "no-worker build = oracle" oracle b;
      Alcotest.(check int) "no partition jobs ran" jobs0
        (Distwork.jobs_total ()))

(* ---------- the kill-sweep ---------- *)

(* SIGKILL the active worker at every protocol event in turn.  Each
   chaos build must (a) terminate within the hang bound, (b) record
   the lost worker, and (c) still produce the oracle's artifact and
   store bytes — degradation visible only in [lost_total]. *)
let kill_sweep_sources = Test_parallel.prog_chain

let test_kill_sweep () =
  let options = { Options.o4 with Options.dist = true } in
  with_dir @@ fun oracle_dir ->
  let oracle =
    with_closed_store oracle_dir (fun store ->
        Pipeline.compile ~cache:store { Options.o4 with Options.jobs = 1 }
          kill_sweep_sources)
  in
  (* A clean distributed run sizes the sweep: its protocol-event count
     is the number of distinct kill points, and a counting plan's proc
     clock numbers exactly those events. *)
  let events0 = Distwork.events_total () in
  (match Faults.install "count" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "count plan rejected: %s" m);
  let proc_ops =
    Fun.protect ~finally:Faults.clear @@ fun () ->
    with_dir (fun d ->
        let b =
          with_closed_store d (fun store ->
              Pipeline.compile ~cache:store { options with Options.jobs = 2 }
                kill_sweep_sources)
        in
        same_build "clean dist run = oracle" oracle b;
        Alcotest.(check bool) "clean dist store bytes = oracle's" true
          (same_store_bytes d oracle_dir));
    Faults.op_count Faults.proc
  in
  let n = Distwork.events_total () - events0 in
  Alcotest.(check bool)
    (Printf.sprintf "clean dist run spoke the protocol (%d events)" n)
    true (n > 0);
  Alcotest.(check int) "the proc clock numbers every protocol event" n proc_ops;
  for k = 1 to n do
    (match Faults.install (Printf.sprintf "kill@%d" k) with
    | Ok () -> ()
    | Error m -> Alcotest.failf "kill@%d rejected: %s" k m);
    Fun.protect ~finally:Faults.clear (fun () ->
        with_dir (fun d ->
            let lost0 = Distwork.lost_total () in
            let b =
              with_closed_store d (fun store ->
                  Pipeline.compile ~cache:store
                    { options with Options.jobs = 2 }
                    kill_sweep_sources)
            in
            same_build (Printf.sprintf "kill@%d build = oracle" k) oracle b;
            Alcotest.(check bool)
              (Printf.sprintf "kill@%d store bytes = oracle's" k)
              true
              (same_store_bytes d oracle_dir);
            Alcotest.(check bool)
              (Printf.sprintf "kill@%d recorded the lost worker" k)
              true
              (Distwork.lost_total () > lost0)))
  done

(* ---------- the TCP fleet: placement, skew, stragglers, partitions ---------- *)

(* Jobs really land on the fleet: with no usable local binary the
   build still completes byte-identically, every partition job runs
   over TCP, and nothing is lost on the clean path. *)
let test_tcp_jobs_accounted () =
  let oracle = build ~mode:Threads Options.o4 1 matrix_sources in
  with_fleet 2 @@ fun endpoints ->
  with_env "CMO_DIST_WORKER" "/nonexistent/cmoc_worker" @@ fun () ->
  let jobs0 = Distwork.jobs_total () in
  let lost0 = Distwork.lost_total () in
  let b = build ~mode:(Tcp endpoints) Options.o4 4 matrix_sources in
  same_build "tcp fleet build = oracle" oracle b;
  Alcotest.(check bool) "partition jobs ran over TCP" true
    (Distwork.jobs_total () - jobs0 >= 2);
  Alcotest.(check int) "no workers lost on the clean path" lost0
    (Distwork.lost_total ());
  let o = Pipeline.run b in
  let oo = Pipeline.run oracle in
  Alcotest.(check bool) "tcp image behaves like the oracle" true
    (o.Vm.output = oo.Vm.output && o.Vm.ret = oo.Vm.ret)

(* Distribution is visible in a traced build's own report: each
   [dist/*] Obs counter equals the matching process-lifetime total's
   delta over the build — here with a reset injected so the loss
   series moves too — and tracing leaves every artifact unchanged. *)
let test_tcp_traced_counters () =
  with_fleet 2 @@ fun endpoints ->
  let plain = build ~mode:(Tcp endpoints) Options.o4 2 matrix_sources in
  let totals () =
    [
      ("dist/jobs", Distwork.jobs_total ());
      ("dist/lost", Distwork.lost_total ());
      ("dist/refused", Distwork.refused_total ());
      ("dist/stragglers", Distwork.stragglers_total ());
      ("dist/retired", Distwork.retired_total ());
    ]
  in
  let before = totals () in
  (match Faults.install "reset@2" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "reset plan rejected: %s" m);
  let traced =
    Fun.protect ~finally:Faults.clear @@ fun () ->
    with_dir @@ fun dir ->
    let options =
      { Options.o4 with Options.trace = Some (Filename.concat dir "trace.json") }
    in
    build ~mode:(Tcp endpoints) options 2 matrix_sources
  in
  same_build "traced fleet build = untraced" plain traced;
  let counters =
    match traced.Pipeline.report.Pipeline.obs with
    | Some s -> s.Cmo_obs.Obs.counters
    | None -> Alcotest.fail "traced build carries no trace summary"
  in
  List.iter2
    (fun (name, b) (_, a) ->
      let ticked =
        Option.value ~default:0.0 (List.assoc_opt name counters)
      in
      Alcotest.(check int) (name ^ " = total delta") (a - b)
        (int_of_float ticked))
    before (totals ());
  Alcotest.(check bool) "jobs and a loss were counted" true
    (List.assoc "dist/jobs" counters > 0.0
    && List.assoc "dist/lost" counters > 0.0)

(* A worker fleet built from other sources: the handshake refuses
   every skewed Hello (fingerprint mismatch), no skewed worker ever
   touches an artifact, and the refused jobs run locally —
   byte-identical.  [$CMO_WORKER_FP] makes the fleet (and any spawned
   local, which inherits it) {e report} a fake fingerprint while the
   parent still expects its own build identity. *)
let test_tcp_skewed_fleet_refused () =
  let oracle = build ~mode:Threads Options.o4 1 matrix_sources in
  with_env "CMO_WORKER_FP" "deadbeef-version-skew" @@ fun () ->
  with_fleet 2 @@ fun endpoints ->
  let jobs0 = Distwork.jobs_total () in
  let refused0 = Distwork.refused_total () in
  let retired0 = Distwork.retired_total () in
  let b = build ~mode:(Tcp endpoints) Options.o4 2 matrix_sources in
  same_build "skewed fleet build = oracle" oracle b;
  Alcotest.(check bool) "skewed workers were refused" true
    (Distwork.refused_total () > refused0);
  Alcotest.(check bool) "skewed endpoints were retired" true
    (Distwork.retired_total () > retired0);
  Alcotest.(check int) "no job completed on a skewed worker" jobs0
    (Distwork.jobs_total ())

(* A parent with no local worker binary still knows what to expect:
   its own compiled-in build identity.  A fleet reporting anything
   else is refused and retired exactly as when a binary is present —
   an unchecked handshake would let a worker built from other sources
   write artifacts. *)
let test_tcp_skewed_fleet_refused_without_binary () =
  let oracle = build ~mode:Threads Options.o4 1 matrix_sources in
  with_env "CMO_WORKER_FP" "deadbeef-version-skew" @@ fun () ->
  with_fleet 2 @@ fun endpoints ->
  with_env "CMO_DIST_WORKER" "/nonexistent/cmoc_worker" @@ fun () ->
  let jobs0 = Distwork.jobs_total () in
  let refused0 = Distwork.refused_total () in
  let retired0 = Distwork.retired_total () in
  let b = build ~mode:(Tcp endpoints) Options.o4 2 matrix_sources in
  same_build "binary-less skewed fleet build = oracle" oracle b;
  Alcotest.(check bool) "skewed workers were refused" true
    (Distwork.refused_total () > refused0);
  Alcotest.(check bool) "skewed endpoints were retired" true
    (Distwork.retired_total () > retired0);
  Alcotest.(check int) "no job completed on a skewed worker" jobs0
    (Distwork.jobs_total ())

(* The identity every tool of this tree embeds: an MD5 in lowercase
   hex, fixed at build time. *)
let test_build_identity_shape () =
  let id = Cmo_buildid.id in
  Alcotest.(check int) "32 characters" 32 (String.length id);
  Alcotest.(check bool) "lowercase hex" true
    (String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) id)

(* Pinning [$CMO_DIST_EXPECT_FP] to the identity the fleet reports
   accepts it: the pin replaces the default, it does not add a second
   check. *)
let test_tcp_pinned_identity_accepted () =
  let oracle = build ~mode:Threads Options.o4 1 matrix_sources in
  with_fleet 2 @@ fun endpoints ->
  with_env "CMO_DIST_EXPECT_FP" Cmo_buildid.id @@ fun () ->
  let jobs0 = Distwork.jobs_total () in
  let refused0 = Distwork.refused_total () in
  let b = build ~mode:(Tcp endpoints) Options.o4 2 matrix_sources in
  same_build "pinned fleet build = oracle" oracle b;
  Alcotest.(check bool) "jobs completed on the fleet" true
    (Distwork.jobs_total () > jobs0);
  Alcotest.(check int) "no worker refused" refused0 (Distwork.refused_total ())

(* The same skew on spawned pipe workers — the handshake is
   transport-independent. *)
let test_skewed_local_worker_refused () =
  let oracle = build ~mode:Threads Options.o4 1 matrix_sources in
  with_env "CMO_WORKER_FP" "deadbeef-version-skew" @@ fun () ->
  let jobs0 = Distwork.jobs_total () in
  let refused0 = Distwork.refused_total () in
  let b = build ~mode:Procs Options.o4 2 matrix_sources in
  same_build "skewed local build = oracle" oracle b;
  Alcotest.(check bool) "skewed spawned worker was refused" true
    (Distwork.refused_total () > refused0);
  Alcotest.(check int) "no job completed on a skewed worker" jobs0
    (Distwork.jobs_total ())

(* A live-but-slow fleet: heartbeats prove the workers are alive, the
   per-job deadline declares them stragglers anyway, and every
   straggled partition is redone locally — byte-identical, with the
   redo visible on the straggler counter. *)
let test_tcp_straggler_redo () =
  with_dir @@ fun oracle_dir ->
  let oracle =
    with_closed_store oracle_dir (fun store ->
        build ~mode:Threads ~cache:store Options.o4 1 kill_sweep_sources)
  in
  with_env "CMO_WORKER_SLOW_S" "1.5" @@ fun () ->
  with_env "CMO_WORKER_HB" "0.2" @@ fun () ->
  with_fleet 1 @@ fun endpoints ->
  with_env "CMO_DIST_DEADLINE" "0.4" @@ fun () ->
  let stragglers0 = Distwork.stragglers_total () in
  let lost0 = Distwork.lost_total () in
  with_dir (fun d ->
      let b =
        with_closed_store d (fun store ->
            build ~mode:(Tcp endpoints) ~cache:store Options.o4 2
              kill_sweep_sources)
      in
      same_build "straggler build = oracle" oracle b;
      Alcotest.(check bool) "straggler store bytes = oracle's" true
        (same_store_bytes d oracle_dir);
      Alcotest.(check bool) "straggler redo recorded" true
        (Distwork.stragglers_total () > stragglers0);
      Alcotest.(check bool) "straggled worker counted lost" true
        (Distwork.lost_total () > lost0))

(* ---------- one job in flight per endpoint ---------- *)

(* At -j 1 a two-endpoint fleet still runs two partitions at once, one
   per endpoint, and the report says so; artifacts and store bytes
   stay the oracle's. *)
let test_tcp_fleet_width () =
  with_dir @@ fun oracle_dir ->
  let oracle =
    with_closed_store oracle_dir (fun store ->
        build ~mode:Threads ~cache:store Options.o4 1 matrix_sources)
  in
  with_fleet 2 @@ fun endpoints ->
  with_dir @@ fun d ->
  let b =
    with_closed_store d (fun store ->
        build ~mode:(Tcp endpoints) ~cache:store Options.o4 1 matrix_sources)
  in
  same_build "j1 two-endpoint build = oracle" oracle b;
  Alcotest.(check bool) "j1 two-endpoint store bytes = oracle's" true
    (same_store_bytes d oracle_dir);
  Alcotest.(check int) "workers_used counts both endpoints" 2
    b.Pipeline.report.Pipeline.workers_used

(* The span intervals of one category, as (track, start, end). *)
let spans_of_trace ~cat text =
  let events =
    match Json.parse text with
    | Ok (Json.Arr evs) -> evs
    | Ok _ | Error _ -> Alcotest.fail "trace is not an event array"
  in
  let open_ = Hashtbl.create 8 and spans = ref [] in
  List.iter
    (fun ev ->
      let field k f = Option.bind (Json.member k ev) f in
      match (field "ph" Json.str, field "tid" Json.num, field "ts" Json.num) with
      | Some "B", Some tid, Some ts ->
        let stack = Option.value ~default:[] (Hashtbl.find_opt open_ tid) in
        Hashtbl.replace open_ tid ((field "cat" Json.str, ts) :: stack)
      | Some "E", Some tid, Some ts -> (
        match Hashtbl.find_opt open_ tid with
        | Some ((c, t0) :: rest) ->
          Hashtbl.replace open_ tid rest;
          if c = Some cat then spans := (tid, t0, ts) :: !spans
        | Some [] | None -> Alcotest.fail "trace closes a span it never opened")
      | _ -> ())
    events;
  !spans

(* The same build traced, with each fleet job held 0.2 s: the two
   partitions' component spans sit on two tracks and overlap in
   time. *)
let test_tcp_fleet_traced_overlap () =
  let plain = build ~mode:Threads Options.o4 1 matrix_sources in
  with_env "CMO_WORKER_SLOW_S" "0.2" @@ fun () ->
  with_fleet 2 @@ fun endpoints ->
  with_dir @@ fun dir ->
  let path = Filename.concat dir "trace.json" in
  let traced =
    build ~mode:(Tcp endpoints)
      { Options.o4 with Options.trace = Some path }
      1 matrix_sources
  in
  same_build "traced j1 fleet build = oracle" plain traced;
  let spans = spans_of_trace ~cat:"component" (Helpers.read_file path) in
  let overlap (ta, a0, a1) (tb, b0, b1) = ta <> tb && a0 < b1 && b0 < a1 in
  Alcotest.(check bool)
    (Printf.sprintf "component spans overlap on two tracks (%d spans)"
       (List.length spans))
    true
    (List.exists (fun a -> List.exists (overlap a) spans) spans)

(* Both endpoints die while a job is in flight on each: both jobs are
   lost and redone in-process (no local worker binary), the later
   dials fail, and the build still equals the oracle. *)
let test_tcp_fleet_killed_mid_build () =
  with_dir @@ fun oracle_dir ->
  let oracle =
    with_closed_store oracle_dir (fun store ->
        build ~mode:Threads ~cache:store Options.o4 1 matrix_sources)
  in
  with_env "CMO_WORKER_SLOW_S" "3.0" @@ fun () ->
  with_fleet_pids 2 @@ fun members ->
  with_env "CMO_DIST_WORKER" "/nonexistent/cmoc_worker" @@ fun () ->
  let events0 = Distwork.events_total () in
  let lost0 = Distwork.lost_total () in
  (* A job's first two protocol events are sending it and starting to
     wait for the answer, which takes seconds to come: four events
     mean a job in flight on each endpoint. *)
  let killer =
    Thread.create
      (fun () ->
        let deadline = Unix.gettimeofday () +. 20.0 in
        while
          Distwork.events_total () - events0 < 4
          && Unix.gettimeofday () < deadline
        do
          Thread.delay 0.01
        done;
        List.iter
          (fun (pid, _) ->
            try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
          members)
      ()
  in
  with_dir @@ fun d ->
  let b =
    Fun.protect ~finally:(fun () -> Thread.join killer) @@ fun () ->
    with_closed_store d (fun store ->
        build ~mode:(Tcp (List.map snd members)) ~cache:store Options.o4 1
          matrix_sources)
  in
  same_build "fleet killed mid-build = oracle" oracle b;
  Alcotest.(check bool) "killed fleet store bytes = oracle's" true
    (same_store_bytes d oracle_dir);
  Alcotest.(check bool)
    (Printf.sprintf "both in-flight jobs lost (%d)" (Distwork.lost_total () - lost0))
    true
    (Distwork.lost_total () - lost0 >= 2)

(* ---------- the heartbeat thread ---------- *)

(* A job's end releases the pulse thread at once: twenty 1 ms jobs
   under a 5 s heartbeat finish far inside the 20 x 50 ms a
   tick-polling pulse thread would hold them back on its join.  Each
   job sleeps so the pulse thread is already parked when it ends. *)
let test_pulse_stop_latency () =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 20 do
    Distwork.with_pulses ~hb:5.0 ~send:(fun _ -> ()) (fun () ->
        Thread.delay 0.001)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "20 jobs ended in %.3f s (< 0.25 s)" dt)
    true (dt < 0.25)

(* Waking on job end must not cost the cadence: a 0.3 s job under a
   50 ms heartbeat still sends several pulses, and nothing else. *)
let test_pulse_cadence () =
  let pulses = Atomic.make 0 and others = Atomic.make 0 in
  let send = function
    | Distwork.Pulse -> Atomic.incr pulses
    | _ -> Atomic.incr others
  in
  Distwork.with_pulses ~hb:0.05 ~send (fun () -> Thread.delay 0.3);
  let n = Atomic.get pulses in
  Alcotest.(check bool) (Printf.sprintf "%d pulses (>= 3)" n) true (n >= 3);
  Alcotest.(check int) "only pulses sent" 0 (Atomic.get others)

(* Three straight losses trip the circuit breaker: a dead endpoint is
   dialed (and its refusal retried through the bounded connect
   retries), fails, and after [breaker_limit] consecutive losses is
   retired for the pool's life — later checkouts never dial it
   again. *)
let test_breaker_retires_dead_endpoint () =
  let lfd, port = Netio.listen "127.0.0.1" 0 in
  Unix.close lfd;
  (* No local binary: every loss is the endpoint's. *)
  with_env "CMO_DIST_WORKER" "/nonexistent/cmoc_worker" @@ fun () ->
  let pool =
    Distwork.create_pool
      ~workers:[ Printf.sprintf "127.0.0.1:%d" port ]
      ~timeout_s:2.0 ()
  in
  Fun.protect ~finally:(fun () -> Distwork.close_pool pool) @@ fun () ->
  let retired0 = Distwork.retired_total () in
  let job =
    {
      Distwork.job_options = Options.o4;
      job_modules = [];
      job_called = [];
      job_stored = [];
      job_hot = None;
      job_phase_cache = false;
    }
  in
  for i = 1 to 4 do
    match Distwork.run_job pool job with
    | _ -> Alcotest.failf "attempt %d ran with no live workers" i
    | exception Distwork.Worker_lost -> ()
  done;
  Alcotest.(check int) "endpoint retired after three straight losses"
    (retired0 + 1)
    (Distwork.retired_total ())

(* ---------- the network partition sweep ---------- *)

(* Sever the network at every protocol event in turn ([partition@K] is
   sticky: once severed, every later send is eaten, every recv times
   out, every dial fails).  Whatever the event, the build must
   terminate within the hang bound, degrade the affected partitions to
   local runs, and still produce the oracle's artifact and store
   bytes. *)
let test_tcp_partition_sweep () =
  with_fleet 1 @@ fun endpoints ->
  with_dir @@ fun oracle_dir ->
  let oracle =
    with_closed_store oracle_dir (fun store ->
        build ~mode:Threads ~cache:store Options.o4 1 kill_sweep_sources)
  in
  (* A counting plan sizes the sweep: its net-operation count is the
     number of distinct severing points. *)
  (match Faults.install "count" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "count plan rejected: %s" m);
  Fun.protect ~finally:Faults.clear @@ fun () ->
  with_dir (fun d ->
      let b =
        with_closed_store d (fun store ->
            build ~mode:(Tcp endpoints) ~cache:store Options.o4 2
              kill_sweep_sources)
      in
      same_build "clean tcp run = oracle" oracle b;
      Alcotest.(check bool) "clean tcp store bytes = oracle's" true
        (same_store_bytes d oracle_dir));
  let n = Faults.op_count Faults.net in
  Alcotest.(check bool)
    (Printf.sprintf "clean tcp run used the wire (%d net ops)" n)
    true (n > 0);
  for k = 1 to n do
    (match Faults.install (Printf.sprintf "partition@%d" k) with
    | Ok () -> ()
    | Error m -> Alcotest.failf "partition@%d rejected: %s" k m);
    with_dir (fun d ->
        let lost0 = Distwork.lost_total () in
        let b =
          with_closed_store d (fun store ->
              build ~mode:(Tcp endpoints) ~cache:store Options.o4 2
                kill_sweep_sources)
        in
        same_build (Printf.sprintf "partition@%d build = oracle" k) oracle b;
        Alcotest.(check bool)
          (Printf.sprintf "partition@%d store bytes = oracle's" k)
          true
          (same_store_bytes d oracle_dir);
        Alcotest.(check bool)
          (Printf.sprintf "partition@%d recorded the severed worker" k)
          true
          (Distwork.lost_total () > lost0))
  done;
  Faults.clear ()

(* Each transient fault kind at the first protocol event: the
   connection is written off, the partition redone locally, the
   artifact unchanged.  (The partition sweep covers position; this
   covers kind.) *)
let test_tcp_fault_kinds_recover () =
  with_fleet 1 @@ fun endpoints ->
  let oracle = build ~mode:Threads Options.o4 1 kill_sweep_sources in
  List.iter
    (fun spec ->
      (match Faults.install spec with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s rejected: %s" spec m);
      Fun.protect ~finally:Faults.clear (fun () ->
          let lost0 = Distwork.lost_total () in
          let b = build ~mode:(Tcp endpoints) Options.o4 2 kill_sweep_sources in
          same_build (spec ^ " build = oracle") oracle b;
          Alcotest.(check bool) (spec ^ " wrote off the connection") true
            (Distwork.lost_total () > lost0)))
    [ "drop@1"; "stall@1"; "garble@1,seed=9"; "reset@1"; "garble@2,seed=4" ]

(* ---------- the remote artifact cache through a live cmocd ---------- *)

(* Two "checkouts" (separate local stores) share one daemon: the first
   cold build publishes every module artifact; the second's cold build
   fetches them all and re-optimizes nothing.  Then the daemon dies
   and the remote degrades to misses without failing the build. *)
let test_remote_cache_via_cmocd () =
  with_dir @@ fun dir ->
  let config =
    {
      Server.socket = Filename.concat dir "cmocd.sock";
      builders = 1;
      queue_max = 4;
      state_dir = Filename.concat dir "state";
      cache_capacity = None;
      trace = None;
    }
  in
  let sources = Test_parallel.prog_two_components in
  let options = { Options.o4 with Options.jobs = 2; dist = true } in
  let oracle = Pipeline.compile { Options.o4 with Options.jobs = 1 } sources in
  let t = Server.start config in
  let stopped = ref false in
  let stop () =
    if not !stopped then begin
      stopped := true;
      Server.shutdown t;
      Server.wait t
    end
  in
  Fun.protect ~finally:stop @@ fun () ->
  Client.with_connect ~socket:config.Server.socket @@ fun conn ->
  let remote = Client.remote conn in
  with_dir (fun d1 ->
      let b1 =
        with_closed_store d1 (fun store ->
            Pipeline.compile ~cache:store ~remote options sources)
      in
      same_build "checkout 1 cold = oracle" oracle b1;
      let u1 = usage b1 in
      Alcotest.(check int) "checkout 1 found nothing remote" 0
        u1.Pipeline.remote_hits;
      Alcotest.(check bool) "checkout 1 consulted the remote" true
        (u1.Pipeline.remote_misses > 0));
  with_dir (fun d2 ->
      let b2 =
        with_closed_store d2 (fun store ->
            Pipeline.compile ~cache:store ~remote options sources)
      in
      same_build "checkout 2 cold = oracle" oracle b2;
      let u2 = usage b2 in
      Alcotest.(check bool) "checkout 2 fetched from the daemon" true
        (u2.Pipeline.remote_hits > 0);
      Alcotest.(check int) "checkout 2 missed nothing remote" 0
        u2.Pipeline.remote_misses;
      Alcotest.(check (list string)) "checkout 2 re-optimized nothing" []
        u2.Pipeline.cmo_reoptimized);
  (* Kill the daemon out from under the connection: every subsequent
     remote call degrades to a miss, and the build carries on. *)
  stop ();
  Alcotest.(check (option string)) "dead daemon reads as a miss" None
    (remote.Distwork.remote_get "any-key");
  remote.Distwork.remote_put "any-key" "ignored";
  with_dir (fun d3 ->
      let b3 =
        with_closed_store d3 (fun store ->
            Pipeline.compile ~cache:store ~remote options sources)
      in
      same_build "build over a dead daemon = oracle" oracle b3;
      let u3 = usage b3 in
      Alcotest.(check int) "dead daemon yields no hits" 0
        u3.Pipeline.remote_hits)

let suite =
  [
    ("worker binary resolves", `Quick, test_worker_binary_resolves);
    Helpers.to_alcotest qcheck_parent_roundtrip;
    Helpers.to_alcotest qcheck_worker_roundtrip;
    Helpers.to_alcotest qcheck_parent_truncation;
    Helpers.to_alcotest qcheck_worker_truncation;
    Helpers.to_alcotest qcheck_wire_garbage;
    Helpers.to_alcotest qcheck_framed_bitflip;
    ("framed transport faults", `Quick, test_framed_fd_faults);
    ("matrix +O2", `Quick, test_matrix_o2);
    ("matrix +O4", `Slow, test_matrix_o4);
    ("matrix +O4+P", `Slow, test_matrix_o4_pbo);
    ("matrix whole-set chain", `Slow, test_matrix_chain);
    ("dist jobs accounted", `Quick, test_dist_jobs_accounted);
    ("tcp jobs accounted", `Quick, test_tcp_jobs_accounted);
    ("tcp traced counters", `Quick, test_tcp_traced_counters);
    ("degrades without worker", `Quick, test_degrades_without_worker);
    ("skewed fleet refused", `Quick, test_tcp_skewed_fleet_refused);
    ("skewed local worker refused", `Quick, test_skewed_local_worker_refused);
    ( "tcp skewed fleet refused without a local binary",
      `Quick,
      test_tcp_skewed_fleet_refused_without_binary );
    ("build identity is 32 lowercase hex", `Quick, test_build_identity_shape);
    ("tcp pinned identity accepted", `Quick, test_tcp_pinned_identity_accepted);
    ("straggler redo", `Quick, test_tcp_straggler_redo);
    ("tcp fleet width at j1", `Quick, test_tcp_fleet_width);
    ("tcp fleet traced overlap", `Quick, test_tcp_fleet_traced_overlap);
    ("tcp fleet killed mid-build", `Quick, test_tcp_fleet_killed_mid_build);
    ("pulse stop latency", `Quick, test_pulse_stop_latency);
    ("pulse cadence", `Quick, test_pulse_cadence);
    ("breaker retires dead endpoint", `Quick, test_breaker_retires_dead_endpoint);
    ("kill-sweep", `Slow, test_kill_sweep);
    ("partition sweep over tcp", `Slow, test_tcp_partition_sweep);
    ("tcp fault kinds recover", `Quick, test_tcp_fault_kinds_recover);
    ("remote cache via cmocd", `Slow, test_remote_cache_via_cmocd);
  ]
