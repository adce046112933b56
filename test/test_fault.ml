(* The fault-injected I/O layer: plan grammar, record framing,
   atomic-write crash states, retry, and the consumers' graceful
   degradation — including the property that any single corruption of
   the cache store (index or payload, flip or truncation) still
   yields a successful, byte-identical rebuild. *)

module Fsio = Cmo_support.Fsio
module Store = Cmo_cache.Store
module Repository = Cmo_naim.Repository
module Pipeline = Cmo_driver.Pipeline
module Options = Cmo_driver.Options
module Buildsys = Cmo_driver.Buildsys

let remove_tree = Helpers.remove_tree

(* Helpers.with_dir plus the fault-suite invariant: whatever happened
   inside, no plan leaks into the next test. *)
let with_dir f =
  Helpers.with_dir ~prefix:"cmo_fault" (fun dir ->
      Fun.protect ~finally:Fsio.clear_plan (fun () -> f dir))

let install spec =
  match Fsio.install_plan spec with
  | Ok () -> ()
  | Error m -> Alcotest.failf "plan %S rejected: %s" spec m

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let rec is_crash = function
  | Fsio.Crash -> true
  | Fun.Finally_raised e -> is_crash e
  | _ -> false

let read_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_raw path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data)

(* ---------- plan grammar ---------- *)

let test_plan_parse () =
  Fun.protect ~finally:Fsio.clear_plan @@ fun () ->
  List.iter
    (fun spec -> install spec)
    [ "count"; "crash@1"; "enospc@5,seed=3"; "eio@2,short@7,transient@9";
      " crash@4 , seed=12 " ];
  List.iter
    (fun spec ->
      match Fsio.install_plan spec with
      | Ok () -> Alcotest.failf "plan %S accepted" spec
      | Error _ -> ())
    [ ""; "bogus"; "crash@0"; "crash@x"; "flip@3"; "seed=x"; "crash=3" ]

let test_counters_without_plan () =
  Fsio.clear_plan ();
  Alcotest.(check bool) "no plan" false (Fsio.plan_active ());
  Alcotest.(check int) "no ops counted" 0 (Fsio.op_count ());
  Alcotest.(check int) "no injections" 0 (Fsio.injected ())

(* ---------- crc32 ---------- *)

let test_crc32_vector () =
  (* The IEEE 802.3 check value. *)
  Alcotest.(check int32) "123456789" 0xCBF43926l (Fsio.crc32 "123456789");
  Alcotest.(check int32) "empty" 0l (Fsio.crc32 "")

(* ---------- whole files ---------- *)

let test_atomic_write_roundtrip () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "f" in
  Fsio.atomic_write path "one";
  Alcotest.(check string) "written" "one" (Fsio.read_file path);
  Fsio.atomic_write path "two";
  Alcotest.(check string) "replaced" "two" (Fsio.read_file path)

let test_atomic_write_crash_states () =
  (* atomic_write is three operations (write, fsync, rename); a crash
     at any of them leaves the previous contents intact. *)
  with_dir @@ fun dir ->
  let path = Filename.concat dir "f" in
  Fsio.atomic_write path "old-bytes";
  for k = 1 to 3 do
    install (Printf.sprintf "crash@%d,seed=%d" k k);
    (match Fsio.atomic_write path "NEW-BYTES!" with
    | () -> Alcotest.failf "crash@%d did not fire" k
    | exception e when is_crash e -> ());
    Fsio.clear_plan ();
    Alcotest.(check string)
      (Printf.sprintf "target intact after crash@%d" k)
      "old-bytes" (read_raw path)
  done

let test_injected_errors_look_real () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "f" in
  Fsio.atomic_write path "data";
  install "eio@1";
  (match Fsio.read_file path with
  | _ -> Alcotest.fail "eio@1 did not fire"
  | exception Sys_error m ->
    Alcotest.(check bool) "message names the injection" true
      (contains_sub m "injected eio"));
  Alcotest.(check int) "one injection" 1 (Fsio.injected ())

(* ---------- record framing ---------- *)

let test_record_roundtrip_and_torn_tail () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "log" in
  let a = Fsio.open_append path in
  let payloads = [ "alpha"; ""; String.make 300 'q' ] in
  let offsets = List.map (fun p -> (Fsio.append_record a p, p)) payloads in
  Fsio.close_append ~fsync:true a;
  List.iter
    (fun (off, p) ->
      Alcotest.(check string) "roundtrip" p
        (Fsio.read_record path ~offset:off ~length:(String.length p)))
    offsets;
  let whole = read_raw path in
  Alcotest.(check (pair int int)) "structurally whole"
    (String.length whole, String.length whole)
    (Fsio.valid_prefix path);
  (* A torn append: half a header at the end of the file. *)
  write_raw path (whole ^ "CMR1\x99");
  let valid_end, size = Fsio.valid_prefix path in
  Alcotest.(check int) "torn tail detected" (String.length whole) valid_end;
  Alcotest.(check int) "physical size seen" (String.length whole + 5) size;
  Fsio.truncate path valid_end;
  Alcotest.(check (pair int int)) "repaired"
    (valid_end, valid_end) (Fsio.valid_prefix path)

let test_record_corruption_detected () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "log" in
  let a = Fsio.open_append path in
  let off = Fsio.append_record a "payload-bytes" in
  Fsio.close_append a;
  let raw = read_raw path in
  let flipped = Bytes.of_string raw in
  let pos = Fsio.frame_overhead + 3 in
  Bytes.set flipped pos (Char.chr (Char.code (Bytes.get flipped pos) lxor 0x40));
  write_raw path (Bytes.to_string flipped);
  match Fsio.read_record path ~offset:off ~length:(String.length "payload-bytes") with
  | _ -> Alcotest.fail "corrupt record read back"
  | exception Fsio.Corrupt_record { reason; _ } ->
    Alcotest.(check string) "crc failure" "crc mismatch" reason

let test_short_write_repair () =
  (* Operation 1 is the open; the short write hits the append.  The
     file must be repaired to the record boundary so the next append
     is readable. *)
  with_dir @@ fun dir ->
  let path = Filename.concat dir "log" in
  install "short@2,seed=11";
  let a = Fsio.open_append path in
  (match Fsio.append_record a (String.make 100 'x') with
  | _ -> Alcotest.fail "short@2 did not fire"
  | exception Sys_error _ -> ());
  let off = Fsio.append_record a "after-the-fault" in
  Fsio.close_append a;
  Fsio.clear_plan ();
  Alcotest.(check string) "append after repair readable" "after-the-fault"
    (Fsio.read_record path ~offset:off ~length:(String.length "after-the-fault"));
  let valid_end, size = Fsio.valid_prefix path in
  Alcotest.(check int) "no torn bytes left behind" size valid_end

let test_transient_retry () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "log" in
  let before = Fsio.retries () in
  install "transient@2,seed=5";
  let a = Fsio.open_append path in
  let off = Fsio.append_record a "eventually" in
  Fsio.close_append a;
  Fsio.clear_plan ();
  Alcotest.(check string) "append succeeded through retries" "eventually"
    (Fsio.read_record path ~offset:off ~length:(String.length "eventually"));
  Alcotest.(check int) "two retries burned" (before + 2) (Fsio.retries ())

(* ---------- repository framing ---------- *)

let test_repository_detects_corruption () =
  let path = Filename.temp_file "cmo_fault_repo" ".bin" in
  let r = Repository.create ~path in
  Fun.protect
    ~finally:(fun () ->
      Repository.close r;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let h = Repository.store r "pool-bytes" in
      Alcotest.(check string) "clean fetch" "pool-bytes" (Repository.fetch r h);
      let raw = read_raw path in
      let flipped = Bytes.of_string raw in
      let pos = Fsio.frame_overhead + 1 in
      Bytes.set flipped pos
        (Char.chr (Char.code (Bytes.get flipped pos) lxor 0x01));
      write_raw path (Bytes.to_string flipped);
      match Repository.fetch r h with
      | _ -> Alcotest.fail "corrupt pool fetched"
      | exception Fsio.Corrupt_record _ -> ())

(* ---------- store degradation ---------- *)

let test_store_quarantines_corrupt_record () =
  with_dir @@ fun dir ->
  let store = Store.open_ ~dir () in
  Store.add store "key" "precious-artifact";
  Store.close store;
  let path = Filename.concat dir "payload" in
  let raw = read_raw path in
  let flipped = Bytes.of_string raw in
  let pos = Fsio.frame_overhead + 4 in
  Bytes.set flipped pos (Char.chr (Char.code (Bytes.get flipped pos) lxor 0x10));
  write_raw path (Bytes.to_string flipped);
  let store = Store.open_ ~dir () in
  Fun.protect
    ~finally:(fun () -> Store.close store)
    (fun () ->
      Alcotest.(check (option string)) "corrupt record is a miss" None
        (Store.find store "key");
      let qdir = Filename.concat dir "quarantine" in
      Alcotest.(check bool) "quarantine directory created" true
        (Sys.file_exists qdir && Sys.is_directory qdir);
      Alcotest.(check bool) "damaged bytes preserved" true
        (Array.length (Sys.readdir qdir) > 0);
      (* The store stays usable. *)
      Store.add store "key" "recomputed";
      Alcotest.(check (option string)) "recomputed artifact cached"
        (Some "recomputed") (Store.find store "key"))

let test_store_add_degrades_on_fault () =
  with_dir @@ fun dir ->
  let store = Store.open_ ~dir () in
  Fun.protect ~finally:(fun () -> Fsio.clear_plan (); Store.close store)
  @@ fun () ->
  Store.add store "good" "kept-bytes";
  (* Fault the next payload append (op 1 under this fresh plan). *)
  install "enospc@1";
  Store.add store "doomed" "lost-bytes";
  Fsio.clear_plan ();
  Alcotest.(check (option string)) "faulted add degraded to absence" None
    (Store.find store "doomed");
  Alcotest.(check (option string)) "earlier artifact unharmed"
    (Some "kept-bytes") (Store.find store "good");
  Store.add store "doomed" "second-try";
  Alcotest.(check (option string)) "store usable after the fault"
    (Some "second-try") (Store.find store "doomed")

(* ---------- whole-build degradation ---------- *)

let mini_sources : Pipeline.source list =
  [
    { Pipeline.name = "fm_main";
      text =
        {|
        func main() {
          var n = 12;
          var s = 0;
          var i = 0;
          while (i < n) { s = s + mix(i, s); i = i + 1; }
          print(s);
          return s & 255;
        }
        |} };
    { Pipeline.name = "fm_lib";
      text =
        {|
        static func twist(v) { return v * 3 + 1; }
        func mix(x, seed) { return (seed / 3) + twist(x); }
        |} };
  ]

(* Operation numbering, and therefore the sweep, is only meaningful
   single-threaded; CI runs the suite at CMO_JOBS=4 as well, so pin
   jobs here. *)
let o4_serial = { Options.o4 with Options.jobs = 1 }

let build_in dir =
  Buildsys.build (Buildsys.create ~dir ()) o4_serial mini_sources

let same_build (a : Buildsys.outcome) (b : Buildsys.outcome) =
  let a = a.Buildsys.build and b = b.Buildsys.build in
  a.Pipeline.image.Cmo_link.Image.code = b.Pipeline.image.Cmo_link.Image.code
  && a.Pipeline.image.Cmo_link.Image.funcs
       = b.Pipeline.image.Cmo_link.Image.funcs
  && a.Pipeline.objects = b.Pipeline.objects

let test_injection_off_is_pure () =
  (* A counting plan must observe without perturbing: same image,
     same store bytes as a plain build. *)
  with_dir @@ fun dir ->
  let plain_dir = Filename.concat dir "plain" in
  let counted_dir = Filename.concat dir "counted" in
  Sys.mkdir plain_dir 0o755;
  Sys.mkdir counted_dir 0o755;
  let plain = build_in plain_dir in
  install "count";
  let counted = build_in counted_dir in
  let n = Fsio.op_count () in
  Fsio.clear_plan ();
  Alcotest.(check bool) "identical build" true (same_build plain counted);
  Alcotest.(check bool) "operations counted" true (n > 0);
  List.iter
    (fun file ->
      Alcotest.(check string)
        (file ^ " bytes identical")
        (read_raw (Filename.concat (Filename.concat plain_dir ".cmo-cache") file))
        (read_raw
           (Filename.concat (Filename.concat counted_dir ".cmo-cache") file)))
    [ "index"; "payload" ]

let test_crash_sweep_recovers () =
  (* The exhaustive sweep: for every operation of a cold build, crash
     there, then require the recovery build to match the oracle.
     (bench fault-sweep runs the same loop over a larger program.) *)
  with_dir @@ fun dir ->
  let fresh () =
    remove_tree dir;
    Sys.mkdir dir 0o755
  in
  let oracle = build_in dir in
  fresh ();
  install "count";
  ignore (build_in dir);
  let n = Fsio.op_count () in
  Fsio.clear_plan ();
  Alcotest.(check bool) "sites found" true (n > 0);
  for k = 1 to n do
    fresh ();
    install (Printf.sprintf "crash@%d,seed=%d" k k);
    (match build_in dir with
    | _ -> Alcotest.failf "crash@%d never fired" k
    | exception e when is_crash e -> ());
    Fsio.clear_plan ();
    match build_in dir with
    | recovered ->
      if not (same_build oracle recovered) then
        Alcotest.failf "crash@%d: recovery diverged" k
    | exception e ->
      Alcotest.failf "crash@%d: recovery failed: %s" k (Printexc.to_string e)
  done

let test_trace_export_degrades () =
  let options =
    { o4_serial with Options.trace = Some "/nonexistent-dir/trace.json" }
  in
  let build = Pipeline.compile options mini_sources in
  Alcotest.(check bool) "build survived unwritable trace path" true
    (Array.length build.Pipeline.image.Cmo_link.Image.code > 0)

(* ---------- the corruption property ---------- *)

(* Any single corruption — a byte flip or a truncation, anywhere in
   the index or the payload — must leave the next build successful
   and byte-identical to the oracle. *)
let test_corruption_rebuild =
  QCheck.Test.make ~name:"any index/payload corruption rebuilds identically"
    ~count:60 Helpers.corruption_arbitrary
    (fun (in_index, truncate_it, where, bits) ->
      with_dir @@ fun dir ->
      let oracle = build_in dir in
      let cache = Filename.concat dir ".cmo-cache" in
      let victim = Filename.concat cache (if in_index then "index" else "payload") in
      let raw = read_raw victim in
      let size = String.length raw in
      QCheck.assume (size > 0);
      let pos = min (size - 1) (int_of_float (where *. float_of_int size)) in
      if truncate_it then Unix.truncate victim pos
      else write_raw victim (Helpers.flip_byte raw pos bits);
      match build_in dir with
      | rebuilt -> same_build oracle rebuilt
      | exception e ->
        QCheck.Test.fail_reportf "rebuild failed: %s" (Printexc.to_string e))

(* ---------- profile-pack ingest degradation ---------- *)

module Ingest = Cmo_profile.Ingest
module Db = Cmo_profile.Db
module Prng = Cmo_support.Prng

(* Deterministic synthetic shards, distinct content per index. *)
let mk_shard i =
  let prng = Prng.create (7000 + (i * 131)) in
  let db = Db.create () in
  let funcs = [| "alpha"; "beta"; "gamma" |] in
  for _ = 1 to 5 + Prng.int prng 10 do
    let f = Prng.choose prng funcs in
    let key =
      match Prng.int prng 3 with
      | 0 -> Db.Fentry f
      | 1 -> Db.Block (f, Prng.int prng 6)
      | _ -> Db.Edge (f, Prng.int prng 6, Prng.int prng 6)
    in
    Db.add db key (float_of_int (1 + Prng.int prng 500))
  done;
  {
    Ingest.meta =
      { Ingest.source_fp = "fp"; sample_rate = 1.0; weight = 1.0; age = 0 };
    db;
  }

let pack_shards = List.init 8 mk_shard
let ingest_policy = Ingest.default_policy ~current_fp:"fp"

(* Any single corruption of a shard pack — flip or truncation,
   anywhere (the arbitrary's file bool is reinterpreted as "flip a
   second, mirrored byte too") — must degrade to skip-and-count:
   nothing raises, no corrupted shard is ever decoded as new content,
   and the merged database is byte-identical to ingesting exactly the
   surviving subset of the originals. *)
let test_pack_corruption_clean_subset =
  QCheck.Test.make
    ~name:"corrupt shard pack merges exactly the surviving subset" ~count:60
    Helpers.corruption_arbitrary
    (fun (double_flip, truncate_it, where, bits) ->
      with_dir @@ fun dir ->
      let path = Filename.concat dir "fleet.shards" in
      Ingest.write_pack path pack_shards;
      let raw = read_raw path in
      let size = String.length raw in
      let pos = min (size - 1) (int_of_float (where *. float_of_int size)) in
      if truncate_it then Unix.truncate path pos
      else begin
        let raw = Helpers.flip_byte raw pos bits in
        let raw =
          if double_flip then Helpers.flip_byte raw (size - 1 - pos) bits
          else raw
        in
        write_raw path raw
      end;
      let got, skipped = Ingest.read_pack path in
      let originals = List.map Ingest.encode_shard pack_shards in
      List.iter
        (fun s ->
          if not (List.mem (Ingest.encode_shard s) originals) then
            QCheck.Test.fail_reportf "corrupted shard decoded as new content")
        got;
      (* A flip always damages the frame it lands in; only a
         truncation can land exactly on a frame boundary and lose a
         clean suffix without a countable casualty. *)
      if
        (not truncate_it)
        && List.length got < List.length pack_shards
        && skipped = 0
      then QCheck.Test.fail_reportf "lost shards without counting a skip";
      let db_pack, stats = Ingest.ingest_paths ~policy:ingest_policy [ path ] in
      let got_bytes = List.map Ingest.encode_shard got in
      let matched =
        List.filter
          (fun s -> List.mem (Ingest.encode_shard s) got_bytes)
          pack_shards
      in
      let db_subset, _ = Ingest.ingest ~policy:ingest_policy matched in
      Db.encode db_pack = Db.encode db_subset
      && stats.Ingest.ing_skipped = skipped)

(* Crash every operation of a pack write in turn; whatever state the
   crash left behind, reading must degrade (never raise, never decode
   altered content), and the standard repair — truncate to the valid
   prefix, append the missing shards — must restore a clean pack whose
   ingest is byte-identical to the never-crashed one. *)
let test_pack_crash_sweep () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "fleet.shards" in
  install "count";
  Ingest.write_pack path pack_shards;
  let n = Fsio.op_count () in
  Fsio.clear_plan ();
  Alcotest.(check bool) "sites found" true (n > 0);
  let clean, clean_skips = Ingest.read_pack path in
  Alcotest.(check int) "clean pack has no skips" 0 clean_skips;
  Alcotest.(check int) "clean pack is whole" (List.length pack_shards)
    (List.length clean);
  let oracle_bytes = List.map Ingest.encode_shard pack_shards in
  let clean_db, _ = Ingest.ingest ~policy:ingest_policy pack_shards in
  let clean_encoding = Db.encode clean_db in
  for k = 1 to n do
    if Sys.file_exists path then Sys.remove path;
    install (Printf.sprintf "crash@%d,seed=%d" k k);
    (match Ingest.write_pack path pack_shards with
    | () -> Alcotest.failf "crash@%d never fired" k
    | exception e when is_crash e -> ());
    Fsio.clear_plan ();
    (* Degraded read of whatever the crash left. *)
    let got =
      if Sys.file_exists path then fst (Ingest.read_pack path) else []
    in
    List.iter
      (fun s ->
        if not (List.mem (Ingest.encode_shard s) oracle_bytes) then
          Alcotest.failf "crash@%d: altered shard decoded" k)
      got;
    (* Repair to the valid record boundary, append what is missing. *)
    if Sys.file_exists path then begin
      let valid_end, _ = Fsio.valid_prefix path in
      Fsio.truncate path valid_end
    end;
    let have =
      if Sys.file_exists path then
        List.map Ingest.encode_shard (fst (Ingest.read_pack path))
      else []
    in
    let missing =
      List.filter
        (fun s -> not (List.mem (Ingest.encode_shard s) have))
        pack_shards
    in
    Ingest.append_pack path missing;
    let final, skipped = Ingest.read_pack path in
    if skipped <> 0 then Alcotest.failf "crash@%d: repaired pack not clean" k;
    let db, _ = Ingest.ingest ~policy:ingest_policy final in
    if Db.encode db <> clean_encoding then
      Alcotest.failf "crash@%d: recovered ingest diverged" k
  done

(* ---------- cohort registry crash sweep ---------- *)

module Cohort = Cmo_profile.Cohort

(* The registry's full write surface — create, ingest, tag, snapshot,
   gc with a dropped cohort — crashed at every I/O operation in turn.
   After each crash the reopened registry must be readable (no read
   raises: packs skip-and-count, meta and snapshots degrade), and the
   standard repair — re-run the sequence, appending only the shards a
   torn pack is missing — must land in the oracle state: pulls,
   shard counts, tags, snapshots and the listing all identical to the
   never-crashed run.  (Damage and byte counts are excluded: a torn
   frame legitimately survives until gc compacts it.) *)
let test_cohort_crash_sweep () =
  with_dir @@ fun dir ->
  let reg_dir = Filename.concat dir "reg" in
  let arm_a = List.filteri (fun i _ -> i < 4) pack_shards in
  let arm_b = List.filteri (fun i _ -> i >= 4) pack_shards in
  (* Appends are repaired, not replayed: only the shards the pack does
     not already hold are re-ingested, so a crash mid-append cannot
     double-count on retry. *)
  let ensure reg name want =
    let have, _ = Cohort.shards reg name in
    let have = List.map Ingest.encode_shard have in
    let missing =
      List.filter (fun s -> not (List.mem (Ingest.encode_shard s) have)) want
    in
    ignore (Cohort.ingest_into reg name missing)
  in
  let ops reg =
    Cohort.create reg "stable";
    ensure reg "stable" arm_a;
    ensure reg "canary" arm_b;
    Cohort.tag reg "stable" "prod";
    Cohort.tag reg "stable" "v2";
    ignore (Cohort.snapshot reg ~policy:ingest_policy "stable");
    Cohort.create reg "doomed";
    ignore (Cohort.gc ~drop:[ "doomed" ] reg)
  in
  let state reg =
    let pulls =
      List.map
        (fun n -> Db.encode (fst (Cohort.pull reg ~policy:ingest_policy n)))
        [ "stable"; "canary" ]
    in
    let snap =
      match Cohort.snapshot_db reg "stable" with
      | Some db -> Db.encode db
      | None -> ""
    in
    let infos =
      List.map
        (fun i ->
          ( i.Cohort.ci_name,
            i.Cohort.ci_shards,
            i.Cohort.ci_tags,
            i.Cohort.ci_snapshot ))
        (Cohort.list reg)
    in
    (pulls, snap, infos)
  in
  let oracle =
    let reg = Cohort.open_ ~dir:reg_dir in
    ops reg;
    state reg
  in
  remove_tree reg_dir;
  install "count";
  ops (Cohort.open_ ~dir:reg_dir);
  let n = Fsio.op_count () in
  Fsio.clear_plan ();
  Alcotest.(check bool) "sites found" true (n > 0);
  for k = 1 to n do
    remove_tree reg_dir;
    install (Printf.sprintf "crash@%d,seed=%d" k k);
    (match ops (Cohort.open_ ~dir:reg_dir) with
    | () -> Alcotest.failf "crash@%d never fired" k
    | exception e when is_crash e -> ());
    Fsio.clear_plan ();
    (* Whatever the crash left behind, every read degrades — nothing
       raises. *)
    let reg = Cohort.open_ ~dir:reg_dir in
    (match state reg with
    | _ -> ()
    | exception e ->
      Alcotest.failf "crash@%d: read raised: %s" k (Printexc.to_string e));
    (* The repair from that state must land in the oracle state. *)
    ops reg;
    if state reg <> oracle then Alcotest.failf "crash@%d: repair diverged" k
  done

(* ---------- the network chokepoint (Netio) ---------- *)

(* Fsio's plan discipline applied to the wire: the same grammar shape,
   counters, purity-of-counting and injected-errors-look-real
   properties, against Netio's own fault kinds. *)

module Netio = Cmo_support.Netio

let net_install spec =
  match Netio.install_plan spec with
  | Ok () -> ()
  | Error m -> Alcotest.failf "net plan %S rejected: %s" spec m

let with_net_plan spec f =
  net_install spec;
  Fun.protect ~finally:Netio.clear_plan f

let test_net_plan_parse () =
  Fun.protect ~finally:Netio.clear_plan @@ fun () ->
  List.iter net_install
    [ "count"; "drop@1"; "stall@5,seed=3"; "garble@2,reset@7,partition@9";
      " drop@4 , seed=12 " ];
  List.iter
    (fun spec ->
      match Netio.install_plan spec with
      | Ok () -> Alcotest.failf "net plan %S accepted" spec
      | Error _ -> ())
    (* crash/enospc are Fsio kinds — the wire injector must not
       accept disk faults. *)
    [ ""; "bogus"; "drop@0"; "drop@x"; "crash@3"; "enospc@1"; "seed=x";
      "drop=3" ]

let test_net_counters_without_plan () =
  Netio.clear_plan ();
  Alcotest.(check bool) "no plan" false (Netio.plan_active ());
  Alcotest.(check int) "no ops counted" 0 (Netio.op_count ());
  Alcotest.(check int) "no injections" 0 (Netio.injected ())

let test_net_parse_addr () =
  let ok s = Netio.parse_addr s in
  Alcotest.(check bool) "plain" true (ok "127.0.0.1:80" = Ok ("127.0.0.1", 80));
  Alcotest.(check bool) "port 0" true (ok "box:0" = Ok ("box", 0));
  (* The split is at the last colon, so bracketless IPv6 hosts work. *)
  Alcotest.(check bool) "last colon" true (ok "::1:443" = Ok ("::1", 443));
  List.iter
    (fun s ->
      match ok s with
      | Ok _ -> Alcotest.failf "address %S accepted" s
      | Error _ -> ())
    [ "noport"; "h:"; "h:x"; "h:70000"; "h:-1"; ":80" ]

(* One connected socketpair per scenario: Netio.send/recv treat any
   stream fd alike, so the fault semantics are testable without a
   listener. *)
let with_net_pair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Netio.clear_plan ();
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

(* A counting plan observes without perturbing — Netio's copy of the
   Fsio purity property. *)
let test_net_counting_is_pure () =
  with_net_pair @@ fun a b ->
  with_net_plan "count" @@ fun () ->
  Netio.send a "across the wire";
  (match Netio.recv ~timeout_s:1.0 b with
  | Ok payload -> Alcotest.(check string) "payload intact" "across the wire" payload
  | Error _ -> Alcotest.fail "counted recv failed");
  Alcotest.(check int) "two operations counted" 2 (Netio.op_count ());
  Alcotest.(check int) "nothing injected" 0 (Netio.injected ())

let test_net_drop () =
  with_net_pair @@ fun a b ->
  (* Send side: the message vanishes silently — the peer's bounded
     read times out for real because nothing was written. *)
  with_net_plan "drop@1" (fun () ->
      Netio.send a "lost";
      Alcotest.(check int) "drop injected" 1 (Netio.injected ());
      match Fsio.read_framed ~timeout_s:0.05 b with
      | Error `Timeout -> ()
      | _ -> Alcotest.fail "dropped send reached the peer");
  (* Recv side: the frame is on the wire, but operation K never sees
     it — and because the fd is untouched, the next operation does. *)
  with_net_plan "drop@1" (fun () ->
      Fsio.write_framed a "delayed";
      (match Netio.recv ~timeout_s:1.0 b with
      | Error `Timeout -> ()
      | _ -> Alcotest.fail "dropped recv yielded data");
      match Netio.recv ~timeout_s:1.0 b with
      | Ok payload -> Alcotest.(check string) "frame survives the drop" "delayed" payload
      | Error _ -> Alcotest.fail "post-drop recv failed")

let test_net_stall () =
  with_net_pair @@ fun a b ->
  with_net_plan "stall@1" (fun () ->
      let t0 = Unix.gettimeofday () in
      (match Netio.recv ~timeout_s:30.0 b with
      | Error `Timeout -> ()
      | _ -> Alcotest.fail "stalled recv yielded data");
      (* Fail-fast: the injected timeout must not sleep out the
         deadline — that is what keeps partition sweeps cheap. *)
      Alcotest.(check bool) "injected stall is immediate" true
        (Unix.gettimeofday () -. t0 < 5.0));
  with_net_plan "stall@1" (fun () ->
      match Netio.send a "wedged" with
      | () -> Alcotest.fail "stalled send succeeded"
      | exception Sys_error _ -> ())

let test_net_garble () =
  (* Send side: the peer's CRC machinery refuses the damaged frame —
     the corruption is detected by the receiver, like real line
     noise. *)
  with_net_pair (fun a b ->
      with_net_plan "garble@1,seed=7" (fun () ->
          Netio.send a "precious bits";
          match Fsio.read_framed ~timeout_s:1.0 b with
          | Error (`Bad _) -> ()
          | Ok _ -> Alcotest.fail "garbled frame passed the peer's CRC"
          | Error `Eof -> Alcotest.fail "garbled send read as EOF"
          | Error `Timeout -> Alcotest.fail "garbled send wrote nothing"));
  (* Recv side: reported locally without consuming the stream. *)
  with_net_pair (fun a b ->
      with_net_plan "garble@1" (fun () ->
          Fsio.write_framed a "precious bits";
          (match Netio.recv ~timeout_s:1.0 b with
          | Error (`Bad _) -> ()
          | _ -> Alcotest.fail "garbled recv did not report Bad");
          match Netio.recv ~timeout_s:1.0 b with
          | Ok p -> Alcotest.(check string) "stream intact after garble" "precious bits" p
          | Error _ -> Alcotest.fail "post-garble recv failed"))

let test_net_reset_is_one_shot () =
  with_net_pair @@ fun a b ->
  with_net_plan "reset@1" @@ fun () ->
  (match Netio.send a "gone" with
  | () -> Alcotest.fail "reset send succeeded"
  | exception Sys_error _ -> ());
  (* One-shot: the connection works again at the next operation. *)
  Netio.send a "back";
  match Netio.recv ~timeout_s:1.0 b with
  | Ok p -> Alcotest.(check string) "post-reset roundtrip" "back" p
  | Error _ -> Alcotest.fail "post-reset recv failed"

let test_net_partition_is_sticky () =
  with_net_pair @@ fun a b ->
  with_net_plan "partition@1" @@ fun () ->
  Netio.send a "severed";
  Alcotest.(check int) "partition injected once" 1 (Netio.injected ());
  (* Every later operation is suppressed without advancing the
     operation clock: sends write nothing, recvs time out, dials
     fail. *)
  let ops_after = Netio.op_count () in
  Netio.send a "also severed";
  (match Netio.recv ~timeout_s:1.0 b with
  | Error `Timeout -> ()
  | _ -> Alcotest.fail "severed recv yielded data");
  (match Netio.connect ~timeout_s:0.2 "127.0.0.1" 1 with
  | fd ->
    Unix.close fd;
    Alcotest.fail "severed connect succeeded"
  | exception Sys_error _ -> ());
  Alcotest.(check int) "severed ops do not count" ops_after (Netio.op_count ());
  Alcotest.(check int) "partition counts once" 1 (Netio.injected ());
  (* Clearing the plan heals the partition. *)
  Netio.clear_plan ();
  Netio.send a "healed";
  match Netio.recv ~timeout_s:1.0 b with
  | Ok p -> Alcotest.(check string) "post-heal roundtrip" "healed" p
  | Error _ -> Alcotest.fail "post-heal recv failed"

(* Real loopback: listen on an ephemeral port, dial it, move frames
   both ways — the no-plan fast path of the whole connect stack. *)
let test_net_listen_connect_roundtrip () =
  Netio.clear_plan ();
  let lfd, port = Netio.listen "127.0.0.1" 0 in
  Fun.protect ~finally:(fun () -> try Unix.close lfd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Alcotest.(check bool) "ephemeral port picked" true (port > 0);
  let cfd = Netio.connect ~timeout_s:5.0 "127.0.0.1" port in
  let sfd, _ = Unix.accept lfd in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close cfd with Unix.Unix_error _ -> ());
      try Unix.close sfd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Netio.send cfd "ping";
  (match Netio.recv ~timeout_s:5.0 sfd with
  | Ok p -> Alcotest.(check string) "client->server" "ping" p
  | Error _ -> Alcotest.fail "server never saw the frame");
  Netio.send sfd "pong";
  match Netio.recv ~timeout_s:5.0 cfd with
  | Ok p -> Alcotest.(check string) "server->client" "pong" p
  | Error _ -> Alcotest.fail "client never saw the reply"

(* Both ends of a Netio connection run with Nagle off: the worker
   protocol's small request/reply frames must not wait on delayed
   ACKs in either direction. *)
let test_net_nodelay_both_ends () =
  Netio.clear_plan ();
  let lfd, port = Netio.listen "127.0.0.1" 0 in
  Fun.protect ~finally:(fun () -> try Unix.close lfd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let cfd = Netio.connect ~timeout_s:5.0 "127.0.0.1" port in
  let sfd, _ = Netio.accept lfd in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close cfd with Unix.Unix_error _ -> ());
      try Unix.close sfd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Alcotest.(check bool) "dialing end has TCP_NODELAY" true
    (Unix.getsockopt cfd Unix.TCP_NODELAY);
  Alcotest.(check bool) "accepting end has TCP_NODELAY" true
    (Unix.getsockopt sfd Unix.TCP_NODELAY)

(* A dead port is a transient connect error: the dialer retries its
   bounded attempts (visible on the retry counter) and then fails with
   Sys_error — an injected-or-real distinction the caller cannot
   see. *)
let test_net_connect_retries_then_fails () =
  Netio.clear_plan ();
  let lfd, port = Netio.listen "127.0.0.1" 0 in
  Unix.close lfd;
  let r0 = Netio.retries () in
  (match Netio.connect ~timeout_s:0.5 "127.0.0.1" port with
  | fd ->
    Unix.close fd;
    Alcotest.fail "connect to a closed port succeeded"
  | exception Sys_error _ -> ());
  Alcotest.(check bool) "bounded retries burned" true (Netio.retries () - r0 >= 2)

let suite =
  [
    ("plan grammar", `Quick, test_plan_parse);
    ("counters without a plan", `Quick, test_counters_without_plan);
    ("crc32 check value", `Quick, test_crc32_vector);
    ("atomic write roundtrip", `Quick, test_atomic_write_roundtrip);
    ("atomic write crash states", `Quick, test_atomic_write_crash_states);
    ("injected errors look real", `Quick, test_injected_errors_look_real);
    ("record roundtrip and torn tail", `Quick, test_record_roundtrip_and_torn_tail);
    ("record corruption detected", `Quick, test_record_corruption_detected);
    ("short write repaired", `Quick, test_short_write_repair);
    ("transient errors retried", `Quick, test_transient_retry);
    ("repository detects corruption", `Quick, test_repository_detects_corruption);
    ("store quarantines corrupt record", `Quick, test_store_quarantines_corrupt_record);
    ("store add degrades on fault", `Quick, test_store_add_degrades_on_fault);
    ("counting plan is pure", `Quick, test_injection_off_is_pure);
    ("crash sweep recovers", `Slow, test_crash_sweep_recovers);
    ("trace export degrades", `Quick, test_trace_export_degrades);
    Helpers.to_alcotest test_corruption_rebuild;
    Helpers.to_alcotest test_pack_corruption_clean_subset;
    ("pack crash sweep", `Slow, test_pack_crash_sweep);
    ("cohort registry crash sweep", `Slow, test_cohort_crash_sweep);
    ("net plan grammar", `Quick, test_net_plan_parse);
    ("net counters without a plan", `Quick, test_net_counters_without_plan);
    ("net address parsing", `Quick, test_net_parse_addr);
    ("net counting plan is pure", `Quick, test_net_counting_is_pure);
    ("net drop semantics", `Quick, test_net_drop);
    ("net stall semantics", `Quick, test_net_stall);
    ("net garble semantics", `Quick, test_net_garble);
    ("net reset is one-shot", `Quick, test_net_reset_is_one_shot);
    ("net partition is sticky", `Quick, test_net_partition_is_sticky);
    ("net listen/connect roundtrip", `Quick, test_net_listen_connect_roundtrip);
    ("net TCP_NODELAY on both ends", `Quick, test_net_nodelay_both_ends);
    ("net connect retries then fails", `Quick, test_net_connect_retries_then_fails);
  ]
