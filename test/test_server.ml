(* The build server: wire-protocol round-trips (qcheck over every
   message shape), framing violations (torn, garbage, bit-flipped,
   short reads) through the CMR1 scan path, the scheduler's admission
   and fairness rules, Buildsys sessions, and an end-to-end daemon
   exercise over a real socket — byte-identity against a one-shot
   build (profiled and selective requests included, relinked to the
   local image), warm second request, per-request crash and
   bad-profile isolation, graceful shutdown. *)

module Fsio = Cmo_support.Fsio
module Greeting = Cmo_driver.Greeting
module Options = Cmo_driver.Options
module Pipeline = Cmo_driver.Pipeline
module Buildsys = Cmo_driver.Buildsys
module Objfile = Cmo_link.Objfile
module Proto = Cmo_server.Proto
module Sched = Cmo_server.Sched
module Server = Cmo_server.Server
module Client = Cmo_server.Client
module Db = Cmo_profile.Db
module Ingest = Cmo_profile.Ingest
module Cohort = Cmo_profile.Cohort
module Genprog = Cmo_workload.Genprog
module Suite = Cmo_workload.Suite

let with_dir f = Helpers.with_dir ~prefix:"cmo_server" f

(* --- protocol round-trips ------------------------------------------ *)

let gen_string = QCheck.Gen.(string_size (0 -- 24))

let gen_source =
  QCheck.Gen.map2
    (fun name text -> { Pipeline.name; text })
    gen_string
    QCheck.Gen.(string_size (0 -- 80))

let gen_build_req =
  let open QCheck.Gen in
  let* tag = gen_string in
  let* options = Helpers.gen_options in
  let* profile = option (string_size (0 -- 80)) in
  let* fault = option gen_string in
  let* sources = list_size (0 -- 5) gen_source in
  return { Proto.tag; options; profile; fault; sources }

let gen_request =
  let open QCheck.Gen in
  oneof
    [
      (let* wire = 0 -- 1000 and* identity = gen_string in
       return (Proto.Hello { Greeting.wire; identity }));
      return Proto.Ping;
      return Proto.Stats;
      return Proto.Shutdown;
      map (fun b -> Proto.Build b) gen_build_req;
      map (fun key -> Proto.Cache_get { key }) gen_string;
      map2
        (fun key data -> Proto.Cache_put { key; data })
        gen_string
        (string_size (0 -- 80));
      return Proto.Cohort_list;
      (let* cohort = gen_string in
       let* shards = list_size (0 -- 4) (string_size (0 -- 60)) in
       return (Proto.Cohort_ingest { cohort; shards }));
      (let* cohort = gen_string and* current_fp = gen_string in
       return (Proto.Cohort_pull { cohort; current_fp }));
      (let* base = gen_string and* canary = gen_string in
       let* percent = float_bound_inclusive 100.0 in
       let* threshold = float_bound_inclusive 1.0 in
       let* sources = list_size (0 -- 3) gen_source in
       return (Proto.Cohort_diff { base; canary; percent; threshold; sources }));
    ]

let gen_stats =
  let open QCheck.Gen in
  let n = 0 -- 10_000 in
  let* accepted = n and* completed = n and* failed = n and* rejected = n in
  let* queue_depth = n and* inflight = n in
  let* store_hits = n and* store_misses = n in
  return
    {
      Proto.accepted;
      completed;
      failed;
      rejected;
      queue_depth;
      inflight;
      store_hits;
      store_misses;
    }

let gen_cohort_info =
  let open QCheck.Gen in
  let* ci_name = gen_string in
  let* ci_shards = 0 -- 1000 and* ci_damaged = 0 -- 50 in
  let* ci_bytes = 0 -- 1_000_000 in
  return { Cohort.ci_name; ci_shards; ci_damaged; ci_bytes }

let gen_response =
  let open QCheck.Gen in
  oneof
    [
      return Proto.Pong;
      return Proto.Shutting_down;
      (let* tag = gen_string in
       let* objects = list_size (0 -- 4) gen_string in
       let* routine_order = list_size (0 -- 4) gen_string in
       let* report = gen_string in
       return (Proto.Built { tag; objects; routine_order; report }));
      (let* tag = gen_string and* reason = gen_string in
       return (Proto.Rejected { tag; reason }));
      (let* tag = gen_string and* reason = gen_string in
       return (Proto.Failed { tag; reason }));
      map (fun s -> Proto.Stats_reply s) gen_stats;
      return Proto.Cache_miss;
      return Proto.Cache_stored;
      map (fun data -> Proto.Cache_hit { data }) gen_string;
      map
        (fun cohorts -> Proto.Cohort_listing { cohorts })
        (list_size (0 -- 4) gen_cohort_info);
      (let* cohort = gen_string and* shards = 0 -- 1000 in
       return (Proto.Cohort_stored { cohort; shards }));
      (let* data = string_size (0 -- 80) in
       let* shards = 0 -- 1000 and* skipped = 0 -- 100 in
       return (Proto.Cohort_db { data; shards; skipped }));
      map (fun report -> Proto.Cohort_report { report }) (string_size (0 -- 80));
    ]

let arb_request =
  QCheck.make
    ~print:(fun r -> String.escaped (Proto.string_of_request r))
    gen_request

let arb_response =
  QCheck.make
    ~print:(fun r -> String.escaped (Proto.string_of_response r))
    gen_response

let qcheck_request_roundtrip =
  QCheck.Test.make ~name:"every request round-trips the wire codec" ~count:300
    arb_request (fun r ->
      Proto.request_of_string (Proto.string_of_request r) = Ok r)

let qcheck_response_roundtrip =
  QCheck.Test.make ~name:"every response round-trips the wire codec"
    ~count:300 arb_response (fun r ->
      Proto.response_of_string (Proto.string_of_response r) = Ok r)

let qcheck_request_truncation =
  QCheck.Test.make ~name:"truncated requests decode to errors, never raise"
    ~count:200
    QCheck.(pair arb_request (float_bound_inclusive 1.0))
    (fun (r, frac) ->
      let s = Proto.string_of_request r in
      let k = int_of_float (frac *. float_of_int (String.length s)) in
      let k = min k (String.length s - 1) in
      k < 0
      ||
      match Proto.request_of_string (String.sub s 0 k) with
      | Ok _ -> false (* a strict prefix must not decode *)
      | Error _ -> true)

let qcheck_garbage_no_raise =
  QCheck.Test.make ~name:"arbitrary bytes never crash the decoders" ~count:300
    (QCheck.make QCheck.Gen.(string_size (0 -- 60)))
    (fun s ->
      (match Proto.request_of_string s with Ok _ | Error _ -> ());
      (match Proto.response_of_string s with Ok _ | Error _ -> ());
      true)

(* --- framing: torn / garbage / bit-flips through the CMR1 scan ----- *)

let test_frame_scan () =
  let f = Fsio.frame "hello server" in
  (match Fsio.scan_frame f ~pos:0 with
  | Fsio.Frame { payload; next } ->
    Alcotest.(check string) "payload" "hello server" payload;
    Alcotest.(check int) "next" (String.length f) next
  | _ -> Alcotest.fail "frame did not scan");
  (* Torn: every strict prefix is Need, never Frame, never Bad. *)
  for k = 0 to String.length f - 1 do
    match Fsio.scan_frame (String.sub f 0 k) ~pos:0 with
    | Fsio.Need n -> Alcotest.(check bool) "need positive" true (n > 0)
    | Fsio.Frame _ -> Alcotest.failf "prefix %d scanned as a whole frame" k
    | Fsio.Bad _ -> Alcotest.failf "prefix %d scanned as Bad, not Need" k
  done;
  (* Any single bit flip is Bad (magic or CRC catches it). *)
  for i = 0 to String.length f - 1 do
    match Fsio.scan_frame (Helpers.flip_byte f i 0x40) ~pos:0 with
    | Fsio.Bad _ -> ()
    | Fsio.Frame _ -> Alcotest.failf "bit flip at %d went undetected" i
    | Fsio.Need _ ->
      (* Flipping a length byte can turn the frame into a longer,
         still-incomplete one; acceptable only past the magic. *)
      if i < 4 then Alcotest.failf "magic flip at %d read as Need" i
  done

let test_valid_prefix () =
  let a = Fsio.frame "one" and b = Fsio.frame "two" in
  let torn = String.sub (Fsio.frame "three") 0 7 in
  let whole = a ^ b in
  Alcotest.(check int) "whole stream" (String.length whole)
    (Fsio.valid_prefix_string whole);
  Alcotest.(check int) "torn tail ignored" (String.length whole)
    (Fsio.valid_prefix_string (whole ^ torn));
  Alcotest.(check int) "garbage stops the scan at zero" 0
    (Fsio.valid_prefix_string ("XXXX" ^ whole))

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

(* The daemon and its clients frame messages with [Fsio.write_framed]
   and [Fsio.read_framed] directly. *)
let test_read_message () =
  (* Round trip. *)
  with_socketpair (fun a b ->
      Fsio.write_framed a "payload bytes";
      match Fsio.read_framed b with
      | Ok p -> Alcotest.(check string) "round trip" "payload bytes" p
      | Error _ -> Alcotest.fail "read_framed failed on a good frame");
  (* Clean close between messages is Eof. *)
  with_socketpair (fun a b ->
      Unix.close a;
      match Fsio.read_framed b with
      | Error `Eof -> ()
      | _ -> Alcotest.fail "clean close was not Eof");
  (* Garbage bytes are a framing violation. *)
  with_socketpair (fun a b ->
      let junk = "NOPE this is not a frame at all........" in
      ignore (Unix.write_substring a junk 0 (String.length junk));
      Unix.close a;
      match Fsio.read_framed b with
      | Error (`Bad _) -> ()
      | Ok _ -> Alcotest.fail "garbage decoded as a message"
      | Error (`Eof | `Timeout) -> Alcotest.fail "garbage read as clean Eof");
  (* A short read — close mid-frame — is Bad, not Eof: the peer died
     inside a message. *)
  with_socketpair (fun a b ->
      let f = Fsio.frame "cut off" in
      ignore (Unix.write_substring a f 0 7);
      Unix.close a;
      match Fsio.read_framed b with
      | Error (`Bad _) -> ()
      | Ok _ | Error (`Eof | `Timeout) ->
        Alcotest.fail "torn frame not reported as Bad")

(* --- the scheduler ------------------------------------------------- *)

let test_sched_admission () =
  let q = Sched.create ~queue_max:2 () in
  Alcotest.(check bool) "first admitted" true (Sched.submit q ~cost:1 "a");
  Alcotest.(check bool) "second admitted" true (Sched.submit q ~cost:1 "b");
  Alcotest.(check bool) "third refused" false (Sched.submit q ~cost:1 "c");
  Alcotest.(check (option string)) "drain one" (Some "a") (Sched.take q);
  Alcotest.(check bool) "slot freed" true (Sched.submit q ~cost:1 "c")

let test_sched_aging () =
  let q = Sched.create ~small_cost:10 ~age_rounds:2 ~queue_max:16 () in
  Alcotest.(check bool) "big admitted" true (Sched.submit q ~cost:100 "big");
  List.iter
    (fun s -> assert (Sched.submit q ~cost:1 s))
    [ "s1"; "s2"; "s3"; "s4" ];
  (* Small class dispatches first, FIFO; after two dispatches the big
     entry has aged into the interactive class and its lower seq wins. *)
  let order = List.init 5 (fun _ -> Option.get (Sched.take q)) in
  Alcotest.(check (list string))
    "FIFO with aging" [ "s1"; "s2"; "big"; "s3"; "s4" ] order

(* The scheduler's fairness contract under random traffic, checked
   against a reference model: admission refuses exactly at the bound;
   an admitted entry is dispatched within [age_rounds + queue_max]
   dispatches of joining (after [age_rounds] passes it is promoted to
   the interactive class, behind at most the [queue_max] entries
   already queued — nothing that arrives later can cut ahead); and
   two entries of the same cost class never dispatch out of
   submission order. *)
let qcheck_sched_no_starvation =
  let gen =
    QCheck.Gen.(
      list_size (10 -- 120)
        (frequency
           [ (2, return `Small); (2, return `Big); (3, return `Take) ]))
  in
  let print ops =
    String.concat ""
      (List.map (function `Small -> "s" | `Big -> "B" | `Take -> ".") ops)
  in
  QCheck.Test.make
    ~name:"sched: random two-class arrivals stay bounded and ordered"
    ~count:100 (QCheck.make ~print gen)
    (fun ops ->
      let queue_max = 8 and age_rounds = 3 in
      let q = Sched.create ~small_cost:10 ~age_rounds ~queue_max () in
      let next_id = ref 0 in
      (* Oldest first: (id, big, dispatches seen while queued). *)
      let queued = ref [] in
      let dispatch_one () =
        match Sched.take q with
        | None ->
          QCheck.Test.fail_report "take returned None with entries queued"
        | Some (id, big) ->
          (match List.find_opt (fun (i, _, _) -> i = id) !queued with
          | None ->
            QCheck.Test.fail_reportf "dispatched unknown entry %d" id
          | Some (_, _, waits) ->
            if waits > age_rounds + queue_max then
              QCheck.Test.fail_reportf
                "entry %d waited %d dispatches (bound %d)" id waits
                (age_rounds + queue_max));
          (match List.find_opt (fun (_, b, _) -> b = big) !queued with
          | Some (oldest, _, _) when oldest <> id ->
            QCheck.Test.fail_reportf
              "same-class reorder: %d dispatched before %d" id oldest
          | _ -> ());
          queued :=
            List.filter_map
              (fun (i, b, w) ->
                if i = id then None else Some (i, b, w + 1))
              !queued
      in
      List.iter
        (function
          | (`Small | `Big) as cls ->
            let big = cls = `Big in
            let id = !next_id in
            incr next_id;
            let admitted =
              Sched.submit q ~cost:(if big then 100 else 1) (id, big)
            in
            if admitted <> (List.length !queued < queue_max) then
              QCheck.Test.fail_reportf
                "admission of %d disagrees with the depth bound" id;
            if admitted then queued := !queued @ [ (id, big, 0) ]
          | `Take -> if !queued <> [] then dispatch_one ())
        ops;
      (* Close and drain: everything admitted still dispatches, under
         the same bound and ordering. *)
      Sched.close q;
      while !queued <> [] do
        dispatch_one ()
      done;
      Sched.take q = None)

let test_sched_close_drains () =
  let q = Sched.create ~queue_max:4 () in
  assert (Sched.submit q ~cost:1 "a");
  assert (Sched.submit q ~cost:1 "b");
  Sched.close q;
  Alcotest.(check bool) "closed refuses" false (Sched.submit q ~cost:1 "c");
  Alcotest.(check (option string)) "drains a" (Some "a") (Sched.take q);
  Alcotest.(check (option string)) "drains b" (Some "b") (Sched.take q);
  Alcotest.(check (option string)) "then empty" None (Sched.take q);
  Alcotest.(check bool) "reports closed" true (Sched.closed q)

(* --- Buildsys sessions --------------------------------------------- *)

let session_sources =
  [
    {
      Pipeline.name = "sv_main";
      text =
        {|
        func main() {
          var s = 0;
          var i = 0;
          while (i < 10) { s = s + step(i, s); i = i + 1; }
          print(s);
          return s & 255;
        }
        |};
    };
    {
      Pipeline.name = "sv_lib";
      text =
        {|
        static func scale(v) { return v * 5 + 2; }
        func step(x, acc) { return (acc / 4) + scale(x); }
        |};
    };
  ]

let test_session_warm () =
  with_dir @@ fun dir ->
  let ws = Buildsys.create ~dir () in
  let s = Buildsys.open_session ~naim:true ws in
  Fun.protect ~finally:(fun () -> Buildsys.close_session s) @@ fun () ->
  let o4 = { Options.o4 with Options.jobs = 1 } in
  let r1 = Buildsys.request s o4 session_sources in
  let r2 = Buildsys.request s o4 session_sources in
  Alcotest.(check bool) "warm request byte-identical" true
    (r1.Buildsys.build.Pipeline.objects = r2.Buildsys.build.Pipeline.objects);
  (match r2.Buildsys.build.Pipeline.report.Pipeline.cache with
  | Some c ->
    Alcotest.(check bool) "warm request hits the store" true
      (c.Pipeline.hits > 0);
    Alcotest.(check int) "warm request misses nothing" 0 c.Pipeline.misses
  | None -> Alcotest.fail "session build carried no cache report");
  (* Close is idempotent; a request after close is an error. *)
  Buildsys.close_session s;
  match Buildsys.request s o4 session_sources with
  | _ -> Alcotest.fail "request on a closed session succeeded"
  | exception Invalid_argument _ -> ()

(* --- end to end ---------------------------------------------------- *)

let test_end_to_end () =
  with_dir @@ fun dir ->
  let config =
    {
      Server.socket = Filename.concat dir "cmocd.sock";
      builders = 2;
      queue_max = 8;
      state_dir = Filename.concat dir "state";
      cache_capacity = None;
      trace = None;
    }
  in
  let o4 = { Options.o4 with Options.jobs = 1 } in
  let local ?profile ?(sources = session_sources) options =
    List.map Objfile.encode
      (Pipeline.compile ?profile options sources).Pipeline.objects
  in
  let oracle = local o4 in
  let t = Server.start config in
  let finished = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !finished then begin
        Server.shutdown t;
        Server.wait t
      end)
  @@ fun () ->
  (* What the registry answers: compared below between the daemon and
     an offline client over its state directory. *)
  let answers c =
    ( Client.cohort_list c,
      Cohort.Diff.encode
        (Client.cohort_diff c ~base:"stable" ~canary:Cohort.default
           ~percent:20.0 ~threshold:0.02 session_sources) )
  in
  let daemon_answers =
    Client.with_connect ~socket:config.Server.socket (fun conn ->
        Alcotest.(check bool) "ping" true (Client.ping conn);
        let req ?fault ?profile ?(options = o4) ?(sources = session_sources)
            tag =
          { Proto.tag; options; profile; fault; sources }
        in
        (match Client.build conn (req "cold") with
        | Proto.Built { objects; _ } ->
          Alcotest.(check bool) "cold build matches one-shot" true
            (objects = oracle)
        | _ -> Alcotest.fail "cold build did not complete");
        (match Client.build conn (req "warm") with
        | Proto.Built { objects; _ } ->
          Alcotest.(check bool) "warm build matches one-shot" true
            (objects = oracle)
        | _ -> Alcotest.fail "warm build did not complete");
        (* The request carries the profile and every option a local
           build uses: +P with a profile, and selectivity on top, give
           the objects a local [Pipeline.compile ?profile] gives — and
           those differ from the unprofiled build, so a daemon that
           dropped either would fail here.  Relinked in the reply's
           routine order, they give the local image, clustering
           included. *)
        let sources =
          List.map
            (fun (name, text) -> { Pipeline.name; text })
            (Genprog.generate (Genprog.scale (Suite.find "li") 0.1))
        in
        let profile = Pipeline.train ~inputs:[ [||] ] sources in
        let pbo = { o4 with Options.pbo = true } in
        let select = { pbo with Options.selectivity = Some 10.0 } in
        let build options = Pipeline.compile ~profile options sources in
        let pbo_local = build pbo and select_local = build select in
        let objects_of (b : Pipeline.build) =
          List.map Objfile.encode b.Pipeline.objects
        in
        Alcotest.(check bool) "the profile changes the objects" true
          (objects_of pbo_local <> local ~sources o4);
        Alcotest.(check bool) "selectivity changes the objects" true
          (objects_of select_local <> objects_of pbo_local);
        List.iter
          (fun (label, options, (expected : Pipeline.build)) ->
            match
              Client.build conn
                (req ~options ~profile:(Db.encode profile) ~sources label)
            with
            | Proto.Built { objects; routine_order; _ } ->
              Alcotest.(check bool) (label ^ " matches a local build") true
                (objects = objects_of expected);
              Alcotest.(check bool) (label ^ " relinks to the local image")
                true
                (Cmo_link.Linker.link ~routine_order
                   (List.map Objfile.decode objects)
                = Ok expected.Pipeline.image)
            | _ -> Alcotest.failf "%s build did not complete" label)
          [ ("remote O4+P", pbo, pbo_local);
            ("remote O4+P select 10", select, select_local) ];
        (* Profile bytes that do not decode fail that request only. *)
        (match Client.build conn (req ~options:pbo ~profile:"garbage" "bad-prof")
         with
        | Proto.Failed _ -> ()
        | _ -> Alcotest.fail "garbage profile bytes were not refused");
        (match Client.build conn (req "after-bad-prof") with
        | Proto.Built { objects; _ } ->
          Alcotest.(check bool) "build after a bad profile matches" true
            (objects = oracle)
        | _ -> Alcotest.fail "daemon stopped serving after a bad profile");
        let st = Client.stats conn in
        Alcotest.(check bool) "warm traffic visible in stats" true
          (st.Proto.store_hits > 0);
        (* The remote artifact cache, inline on the same connection:
           misses are clean, puts round-trip, and the degrading [remote]
           wrapper exposes both without ever raising. *)
        Alcotest.(check (option string)) "cache_get miss" None
          (Client.cache_get conn "no-such-fingerprint");
        Client.cache_put conn "dist-key" "dist-bytes";
        Alcotest.(check (option string)) "cache_put then hit"
          (Some "dist-bytes")
          (Client.cache_get conn "dist-key");
        let remote = Client.remote conn in
        Alcotest.(check (option string)) "remote wrapper hit"
          (Some "dist-bytes")
          (remote.Cmo_driver.Distwork.remote_get "dist-key");
        Alcotest.(check (option string)) "remote wrapper miss" None
          (remote.Cmo_driver.Distwork.remote_get "still-absent");
        (* A second daemon on the same socket must refuse to start
           rather than hijack this one's socket file. *)
        (match Server.start config with
        | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ()
        | exception e ->
          Alcotest.fail
            ("second daemon failed oddly: " ^ Printexc.to_string e)
        | t2 ->
          Server.shutdown t2;
          Server.wait t2;
          Alcotest.fail "second daemon hijacked a live socket");
        (* A crash plan kills its own request only. *)
        (match Client.build conn (req ~fault:"crash@2,seed=5" "chaos") with
        | Proto.Failed _ -> ()
        | Proto.Built _ -> Alcotest.fail "crash plan never fired"
        | _ -> Alcotest.fail "chaos request got an unexpected reply");
        (match Client.build conn (req "retry") with
        | Proto.Built { objects; _ } ->
          Alcotest.(check bool) "post-crash retry byte-identical" true
            (objects = oracle)
        | _ -> Alcotest.fail "daemon stopped serving after a crash request");
        (* The chaos reopen must not reset the cumulative counters. *)
        let st' = Client.stats conn in
        Alcotest.(check bool) "store hits cumulative across chaos" true
          (st'.Proto.store_hits >= st.Proto.store_hits);
        (* Profile cohorts, inline on the same connection: a daemon pull
           must be byte-identical to a local ingest of the same shards,
           and bad names or garbage shards are refused without hurting
           the connection. *)
        let shard seed count =
          let db = Db.create () in
          Db.add db (Db.Fentry "main") count;
          Db.add db (Db.Block ("main", seed)) (2.0 *. count);
          Ingest.encode_shard
            {
              Ingest.meta =
                {
                  Ingest.source_fp = "fp-e2e";
                  sample_rate = 1.0;
                  weight = 1.0;
                  age = 0;
                };
              db;
            }
        in
        let s1 = shard 1 100.0 and s2 = shard 2 50.0 in
        Alcotest.(check int) "cohort create via empty ingest" 0
          (Client.cohort_ingest conn ~cohort:"stable" []);
        Alcotest.(check int) "cohort ingest counts shards" 2
          (Client.cohort_ingest conn ~cohort:"stable" [ s1; s2 ]);
        (match Client.cohort_list conn with
        | [ info ] ->
          Alcotest.(check string) "cohort listed" "stable" info.Cohort.ci_name;
          Alcotest.(check int) "cohort shard count" 2 info.Cohort.ci_shards
        | l -> Alcotest.failf "cohort list returned %d entries" (List.length l));
        let data, merged, skipped =
          Client.cohort_pull conn ~cohort:"stable" ~current_fp:"fp-e2e"
        in
        Alcotest.(check int) "pull merges both shards" 2 merged;
        Alcotest.(check int) "pull skips nothing" 0 skipped;
        let local, _ =
          Ingest.ingest
            ~policy:(Ingest.default_policy ~current_fp:"fp-e2e")
            (List.map Ingest.decode_shard [ s1; s2 ])
        in
        Alcotest.(check bool) "daemon pull equals local ingest" true
          (data = Db.encode local);
        (match Client.cohort_ingest conn ~cohort:"../escape" [] with
        | _ -> Alcotest.fail "path-escaping cohort name accepted"
        | exception Client.Protocol_error _ -> ());
        (match Client.cohort_ingest conn ~cohort:"stable" [ "garbage" ] with
        | _ -> Alcotest.fail "garbage shard accepted"
        | exception Client.Protocol_error _ -> ());
        (* The connection survives the refusals, and a diff of a cohort
           against itself on this program is a clean no-flip. *)
        let r =
          Client.cohort_diff conn ~base:"stable" ~canary:"stable" ~percent:20.0
            ~threshold:0.02 session_sources
        in
        Alcotest.(check bool) "self-diff is no-flip with empty deltas" true
          (r.Cohort.Diff.r_verdict = Cohort.Diff.No_flip
          && r.Cohort.Diff.r_mod_in = []
          && r.Cohort.Diff.r_mod_out = []);
        (* The default cohort is an ordinary one: a round trip through it
           equals a local ingest as well. *)
        Alcotest.(check int) "default cohort ingest" 1
          (Client.cohort_ingest conn ~cohort:Cohort.default [ s2 ]);
        let data, _, _ =
          Client.cohort_pull conn ~cohort:Cohort.default ~current_fp:"fp-e2e"
        in
        let local, _ =
          Ingest.ingest
            ~policy:(Ingest.default_policy ~current_fp:"fp-e2e")
            [ Ingest.decode_shard s2 ]
        in
        Alcotest.(check bool) "default cohort pull equals local ingest" true
          (data = Db.encode local);
        let answered = answers conn in
        Client.shutdown_server conn;
        answered)
  in
  Server.wait t;
  finished := true;
  Alcotest.(check bool) "socket removed on shutdown" false
    (Sys.file_exists config.Server.socket);
  (* The daemon's registry read offline: the same handler in-process
     gives the same listing and the same diff bytes. *)
  let listing, diff = daemon_answers in
  let offline = Client.offline ~state_dir:config.Server.state_dir in
  let listing', diff' = answers offline in
  Alcotest.(check bool) "offline listing equals the daemon's" true
    (listing = listing');
  Alcotest.(check bool) "offline diff equals the daemon's" true (diff = diff')

(* The same daemon over the multi-machine transport: a [tcp:] socket
   with an ephemeral port, the actual address read back from
   {!Server.address}, and the whole client surface (ping, builds
   byte-identical to a one-shot, the remote artifact cache) unchanged
   — the transport is a deployment detail.  A second daemon on the
   bound port is refused by the kernel, and shutdown leaves no socket
   file behind because there never was one. *)
let test_end_to_end_tcp () =
  with_dir @@ fun dir ->
  let config =
    {
      Server.socket = "tcp:127.0.0.1:0";
      builders = 2;
      queue_max = 8;
      state_dir = Filename.concat dir "state";
      cache_capacity = None;
      trace = None;
    }
  in
  let oracle =
    List.map Objfile.encode
      (Pipeline.compile
         { Options.o4 with Options.jobs = 1 }
         session_sources)
        .Pipeline.objects
  in
  let t = Server.start config in
  let finished = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !finished then begin
        Server.shutdown t;
        Server.wait t
      end)
  @@ fun () ->
  let address = Server.address t in
  Alcotest.(check bool) "ephemeral port resolved"
    true
    (String.length address > String.length "tcp:127.0.0.1:"
    && String.sub address 0 14 = "tcp:127.0.0.1:"
    && address <> config.Server.socket);
  Client.with_connect ~socket:address (fun conn ->
      Alcotest.(check bool) "ping over tcp" true (Client.ping conn);
      let req tag =
        {
          Proto.tag;
          options = { Options.o4 with Options.jobs = 1 };
          profile = None;
          fault = None;
          sources = session_sources;
        }
      in
      (match Client.build conn (req "tcp-cold") with
      | Proto.Built { objects; _ } ->
        Alcotest.(check bool) "tcp build matches one-shot" true
          (objects = oracle)
      | _ -> Alcotest.fail "tcp build did not complete");
      Alcotest.(check (option string)) "tcp cache_get miss" None
        (Client.cache_get conn "no-such-fingerprint");
      Client.cache_put conn "tcp-key" "tcp-bytes";
      Alcotest.(check (option string)) "tcp cache roundtrip"
        (Some "tcp-bytes")
        (Client.cache_get conn "tcp-key");
      (* The bound port is taken: a second daemon must fail to bind,
         not silently serve from somewhere else. *)
      (match
         Server.start
           { config with Server.socket = address;
             state_dir = Filename.concat dir "state2" }
       with
      | exception Sys_error _ -> ()
      | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ()
      | t2 ->
        Server.shutdown t2;
        Server.wait t2;
        Alcotest.fail "second daemon bound a live tcp port");
      Client.shutdown_server conn);
  Server.wait t;
  finished := true

let test_daemon_clamps_jobs () =
  (* A request asking for more worker domains than its builder's share
     of the host's recommended count builds with that share,
     byte-identically.  One over the cap is enough to show the clamp;
     never ask for many. *)
  with_dir @@ fun dir ->
  let config =
    {
      Server.socket = Filename.concat dir "cmocd.sock";
      builders = 2;
      queue_max = 4;
      state_dir = Filename.concat dir "state";
      cache_capacity = None;
      trace = None;
    }
  in
  let cap = max 1 (Domain.recommended_domain_count () / 2) in
  let o4 = { Options.o4 with Options.jobs = cap + 1 } in
  let oracle =
    List.map Objfile.encode
      (Pipeline.compile { o4 with Options.jobs = 1 } session_sources)
        .Pipeline.objects
  in
  let t = Server.start config in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown t;
      Server.wait t)
  @@ fun () ->
  Client.with_connect ~socket:config.Server.socket @@ fun conn ->
  match
    Client.build conn
      { Proto.tag = "wide"; options = o4; profile = None; fault = None;
        sources = session_sources }
  with
  | Proto.Built { objects; report; _ } ->
    Alcotest.(check bool) "clamped build matches one-shot" true
      (objects = oracle);
    let workers_used =
      Result.to_option (Cmo_obs.Json.parse report)
      |> Fun.flip Option.bind (Cmo_obs.Json.member "workers_used")
      |> Fun.flip Option.bind Cmo_obs.Json.num
    in
    Alcotest.(check (option (float 0.0))) "workers_used is the cap"
      (Some (float_of_int cap)) workers_used
  | _ -> Alcotest.fail "wide build did not complete"

(* --- the greeting --------------------------------------------------- *)

(* Raw frames on one connection to an in-process daemon: what a client
   of another build, or one from before the greeting, puts on the
   wire. *)
let with_raw_conn f =
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
  let t = Server.start config in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown t;
      Server.wait t)
  @@ fun () ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX config.Server.socket);
  let send req = Fsio.write_framed fd (Proto.string_of_request req) in
  let ask req =
    send req;
    match Fsio.read_framed fd with
    | Ok payload -> (
      match Proto.response_of_string payload with
      | Ok resp -> resp
      | Error m -> Alcotest.failf "bad response: %s" m)
    | Error _ -> Alcotest.fail "the daemon closed the connection"
  in
  f send ask

(* Every request after a greeting of another build is [Failed], and
   the reason names both identities. *)
let test_greeting_skewed_identity () =
  with_raw_conn @@ fun send ask ->
  let expect = Greeting.expected Options.env in
  send
    (Proto.Hello
       { Greeting.wire = Greeting.wire_version; identity = "deadbeef" });
  List.iter
    (fun (what, req) ->
      match ask req with
      | Proto.Failed { reason; _ } ->
        Alcotest.(check bool)
          (what ^ " refusal names both identities: " ^ reason)
          true
          (Helpers.contains ~sub:"deadbeef" reason
          && Helpers.contains ~sub:expect reason)
      | _ -> Alcotest.failf "%s after a skewed greeting was served" what)
    [ ("Ping", Proto.Ping); ("a second request", Proto.Stats) ]

(* A client from before the greeting opens with a bare request: it is
   refused, naming the missing greeting, instead of served. *)
let test_greeting_missing () =
  with_raw_conn @@ fun _send ask ->
  match ask Proto.Ping with
  | Proto.Failed { reason; _ } ->
    Alcotest.(check bool)
      ("refusal names the missing greeting: " ^ reason)
      true
      (Helpers.contains ~sub:"greeting" reason)
  | Proto.Pong -> Alcotest.fail "a bare Ping with no greeting got Pong"
  | _ -> Alcotest.fail "a bare Ping got an unexpected reply"

let test_greeting_matching () =
  with_raw_conn @@ fun send ask ->
  send (Proto.Hello (Greeting.own ()));
  match ask Proto.Ping with
  | Proto.Pong -> ()
  | _ -> Alcotest.fail "a matching greeting then Ping did not get Pong"

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_request_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_response_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_request_truncation;
    QCheck_alcotest.to_alcotest qcheck_garbage_no_raise;
    Alcotest.test_case "CMR1 frame scan: torn and flipped" `Quick
      test_frame_scan;
    Alcotest.test_case "valid prefix over a frame stream" `Quick
      test_valid_prefix;
    Alcotest.test_case "read_message: eof, garbage, short read" `Quick
      test_read_message;
    Alcotest.test_case "sched: bounded admission" `Quick test_sched_admission;
    Alcotest.test_case "sched: FIFO with aging" `Quick test_sched_aging;
    Alcotest.test_case "sched: close drains" `Quick test_sched_close_drains;
    Helpers.to_alcotest qcheck_sched_no_starvation;
    Alcotest.test_case "buildsys session: warm store, closed errors" `Quick
      test_session_warm;
    Alcotest.test_case "daemon end to end over a socket" `Quick
      test_end_to_end;
    Alcotest.test_case "daemon end to end over tcp" `Quick test_end_to_end_tcp;
    Alcotest.test_case "daemon clamps request jobs" `Quick
      test_daemon_clamps_jobs;
    Alcotest.test_case "greeting of another build is refused" `Quick
      test_greeting_skewed_identity;
    Alcotest.test_case "request without a greeting is refused" `Quick
      test_greeting_missing;
    Alcotest.test_case "matching greeting is served" `Quick
      test_greeting_matching;
  ]
