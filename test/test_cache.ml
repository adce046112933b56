(* The artifact-cache subsystem: fingerprints, the on-disk store, the
   invalidation-closure analysis, and — the load-bearing part — the
   differential guarantee that builds through the cache are
   bit-identical to builds without it, whatever was or wasn't
   cached. *)

module Fingerprint = Cmo_support.Fingerprint
module Store = Cmo_cache.Store
module Invalidate = Cmo_cache.Invalidate
module Funcodec = Cmo_cache.Funcodec
module Func = Cmo_il.Func
module Ilmod = Cmo_il.Ilmod
module Interp = Cmo_il.Interp
module Phase = Cmo_hlo.Phase
module Options = Cmo_driver.Options
module Pipeline = Cmo_driver.Pipeline
module Buildsys = Cmo_driver.Buildsys
module Vm = Cmo_vm.Vm
module Fsio = Cmo_support.Fsio
module Faults = Cmo_support.Faults

(* ---------- scaffolding ---------- *)

let remove_tree = Helpers.remove_tree
let with_store_dir f = Helpers.with_dir ~prefix:"cmo_cache" f

let with_store ?capacity f =
  with_store_dir (fun dir ->
      let store = Store.open_ ?capacity ~dir () in
      Fun.protect ~finally:(fun () -> Store.close store) (fun () -> f store))

(* A four-module application that splits into two weakly-connected
   components of the module graph:

   - [mod_a] (main) calls into [mod_b] — the live component;
   - [mod_c] (exported [report]) calls into [mod_d] and shares the
     [tally] global with it — exported library code no call reaches,
     kept by IPA because [report] and [pack] are roots.

   [kb] and [kd] are editable constants standing in for source
   changes local to one component. *)
let app ?(kb = 3) ?(kd = 10) () : Pipeline.source list =
  [
    {
      Pipeline.name = "mod_a";
      text =
        {|
        func main() {
          var n = 25;
          var s = 0;
          var i = 0;
          while (i < n) { s = s + mix(i, s); i = i + 1; }
          print(s);
          return s & 255;
        }
        |};
    };
    {
      Pipeline.name = "mod_b";
      text =
        Printf.sprintf
          {|
          static func twist(v) { return v * %d + 1; }
          func mix(x, seed) { return (seed / 3) + twist(x); }
          |}
          kb;
    };
    {
      Pipeline.name = "mod_c";
      text =
        {|
        extern global tally;
        func report(v) { tally = tally + pack(v); return tally; }
        |};
    };
    {
      Pipeline.name = "mod_d";
      text =
        Printf.sprintf
          {|
          global tally = 0;
          func pack(v) { return v * %d; }
          |}
          kd;
    };
  ]

let interp_reference sources =
  Interp.run
    (List.map
       (fun { Pipeline.name; text } -> Helpers.compile ~name text)
       sources)

let image (build : Pipeline.build) = build.Pipeline.image

let check_same_image msg a b =
  Alcotest.(check bool) (msg ^ ": code") true
    (a.Cmo_link.Image.code = b.Cmo_link.Image.code);
  Alcotest.(check bool) (msg ^ ": data/symbols") true
    (a.Cmo_link.Image.data_init = b.Cmo_link.Image.data_init
    && a.Cmo_link.Image.funcs = b.Cmo_link.Image.funcs
    && a.Cmo_link.Image.globals = b.Cmo_link.Image.globals)

let cache_usage (build : Pipeline.build) =
  match build.Pipeline.report.Pipeline.cache with
  | Some c -> c
  | None -> Alcotest.fail "expected a cache-usage report"

(* ---------- fingerprints ---------- *)

let test_fingerprint_basics () =
  let k = Fingerprint.of_strings [ "alpha"; "beta" ] in
  Alcotest.(check string) "deterministic" k
    (Fingerprint.of_strings [ "alpha"; "beta" ]);
  Alcotest.(check int) "128-bit hex" 32 (String.length k);
  Alcotest.(check bool) "content-sensitive" true
    (k <> Fingerprint.of_strings [ "alpha"; "gamma" ]);
  Alcotest.(check bool) "order-sensitive" true
    (k <> Fingerprint.of_strings [ "beta"; "alpha" ]);
  Alcotest.(check bool) "framing keeps concatenation injective" true
    (Fingerprint.of_strings [ "ab"; "c" ]
    <> Fingerprint.of_strings [ "a"; "bc" ]);
  let one = Fingerprint.(to_hex (add_string empty "x")) in
  Alcotest.(check int) "64-bit hex" 16 (String.length one)

(* Store keys persist on disk, so the hash's bits are a file format:
   these keys were recorded from the byte-at-a-time implementation and
   any rewrite must reproduce them.  An empty list, empty fields, high
   bytes and a field past 64 KiB. *)
let test_fingerprint_known_answers () =
  let long = String.init 70_000 (fun i -> Char.chr (((i * 31) + 7) land 0xff)) in
  List.iter
    (fun (parts, key) ->
      Alcotest.(check string)
        (Printf.sprintf "of_strings [%s]"
           (String.concat "; "
              (List.map
                 (fun p ->
                   if String.length p > 16 then
                     Printf.sprintf "<%d bytes>" (String.length p)
                   else String.escaped p)
                 parts)))
        key
        (Fingerprint.of_strings parts))
    [
      ([], "6d19e938bfe4af544364a349367f8ed9");
      ([ "" ], "14980315ce94e1d41517c77cbc5323f9");
      ([ "a" ], "2699066b9b960c7c97217d966caaf55b");
      ([ "ab"; "c" ], "aec0ad3538102b75286b2875025c9ad2");
      ([ "a"; "bc" ], "6eb5c11bad28b9758c96c157e715bde6");
      ([ ""; "x"; "" ], "e282f0973d4868f74cd9a277738c1f80");
      ([ "cmo1"; "\000\255\128"; "|comp" ], "1e696b170762111a1c1a840e2cb93b63");
      ([ long ], "f4ebcf957d8c7b96f1fa715327e8c3e7");
      ([ "k"; long; "" ], "1cc4a7fa3fec0adc707974a98a219717");
    ]

(* ---------- the store ---------- *)

let test_store_roundtrip_and_counters () =
  with_store (fun store ->
      Alcotest.(check (option string)) "empty store misses" None
        (Store.find store "k1");
      Store.add store "k1" "payload-one";
      Alcotest.(check (option string)) "hit after add" (Some "payload-one")
        (Store.find store "k1");
      let s = Store.stats store in
      Alcotest.(check int) "one hit" 1 s.Store.hits;
      Alcotest.(check int) "one miss" 1 s.Store.misses;
      Alcotest.(check int) "one store" 1 s.Store.stores;
      Alcotest.(check int) "one entry" 1 s.Store.entries;
      Alcotest.(check int) "live bytes" (String.length "payload-one")
        s.Store.live_bytes)

let test_store_persistence () =
  with_store_dir (fun dir ->
      let store = Store.open_ ~dir () in
      Store.add store "k1" "first";
      Store.add store "k2" "second";
      ignore (Store.find store "k1");
      Store.close store;
      let store = Store.open_ ~dir () in
      Fun.protect
        ~finally:(fun () -> Store.close store)
        (fun () ->
          Alcotest.(check (option string)) "k1 survives reopen" (Some "first")
            (Store.find store "k1");
          Alcotest.(check (option string)) "k2 survives reopen" (Some "second")
            (Store.find store "k2");
          let s = Store.stats store in
          Alcotest.(check int) "hit counter persisted (1 old + 2 new)" 3
            s.Store.hits;
          Alcotest.(check int) "stores persisted" 2 s.Store.stores))

let test_store_replace () =
  with_store (fun store ->
      Store.add store "k" "old-bytes";
      Store.add store "k" "new";
      Alcotest.(check (option string)) "latest wins" (Some "new")
        (Store.find store "k");
      let s = Store.stats store in
      Alcotest.(check int) "one entry" 1 s.Store.entries;
      Alcotest.(check int) "live bytes are the replacement's" 3
        s.Store.live_bytes)

let test_store_lru_eviction () =
  with_store ~capacity:100 (fun store ->
      let blob c = String.make 60 c in
      Store.add store "a" (blob 'a');
      Store.add store "b" (blob 'b');
      (* 120 live > 100: the LRU entry (a) must have gone. *)
      Alcotest.(check (option string)) "a evicted" None (Store.find store "a");
      Alcotest.(check (option string)) "b kept" (Some (blob 'b'))
        (Store.find store "b");
      (* Touch b, add c: b is now the most recent, so c's arrival
         evicts nothing else than... b and c are 120 again, and b was
         touched after a died; the victim is the older of b/c. *)
      Store.add store "c" (blob 'c');
      Alcotest.(check (option string)) "b evicted as LRU" None
        (Store.find store "b");
      Alcotest.(check (option string)) "c kept" (Some (blob 'c'))
        (Store.find store "c");
      let s = Store.stats store in
      Alcotest.(check int) "two evictions" 2 s.Store.evictions;
      (* A single artifact over capacity is kept rather than thrashed. *)
      Store.add store "huge" (String.make 500 'h');
      Alcotest.(check (option string)) "oversized artifact kept"
        (Some (String.make 500 'h'))
        (Store.find store "huge");
      Alcotest.(check int) "never evicts below one entry" 1
        (Store.stats store).Store.entries)

let test_store_clear () =
  with_store (fun store ->
      Store.add store "k" "v";
      ignore (Store.find store "k");
      Store.clear store;
      let s = Store.stats store in
      Alcotest.(check int) "no entries" 0 s.Store.entries;
      Alcotest.(check int) "counters reset" 0
        (s.Store.hits + s.Store.misses + s.Store.stores);
      Alcotest.(check (option string)) "lookup misses" None
        (Store.find store "k"))

let test_store_corrupt_index_tolerated () =
  with_store_dir (fun dir ->
      let store = Store.open_ ~dir () in
      Store.add store "k" "precious";
      Store.close store;
      let oc = open_out_bin (Filename.concat dir "index") in
      output_string oc "this is not an index";
      close_out oc;
      let store = Store.open_ ~dir () in
      Fun.protect
        ~finally:(fun () -> Store.close store)
        (fun () ->
          Alcotest.(check int) "reads as empty" 0
            (Store.stats store).Store.entries;
          Alcotest.(check (option string)) "lookup degrades to miss" None
            (Store.find store "k");
          Store.add store "k2" "fresh";
          Alcotest.(check (option string)) "store still works" (Some "fresh")
            (Store.find store "k2")))

(* ---------- reads: the kept reader and the transaction replay ---------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

(* Distinct payloads of a few KiB, the size of a storm's cached
   artifacts. *)
let artifact i = String.init (2048 + (97 * i)) (fun j -> Char.chr ((i * 31 + j) land 0xff))

let fill store n = List.iter (fun i -> Store.add store (string_of_int i) (artifact i)) (List.init n Fun.id)

let test_txn_commit_reads_once () =
  with_store (fun store ->
      let k = 8 in
      fill store k;
      (match Faults.install "count" with
      | Ok () -> ()
      | Error m -> Alcotest.failf "count plan rejected: %s" m);
      Fun.protect ~finally:Faults.clear (fun () ->
          let txn = Store.txn_begin store in
          List.iter
            (fun i ->
              Alcotest.(check (option string)) "txn hit" (Some (artifact i))
                (Store.txn_find txn (string_of_int i)))
            (List.init k Fun.id);
          Store.txn_commit txn;
          Alcotest.(check int) "one fs read per hit" k (Faults.op_count Faults.fs));
      Alcotest.(check int) "hits counted at commit" k (Store.stats store).Store.hits)

(* One history of finds and adds, done through transactions on one
   store and directly on another: the files must end byte-identical.
   Both transactions begin before either commits, as parallel
   components do, so the second peeks "2" and "3" before the first
   replaces them, and "0" and "4" before the first's replacement of
   "1" outgrows the capacity and evicts them. *)
let test_txn_commit_bytes_equal_direct () =
  with_store_dir (fun dir ->
      let history =
        [
          [ `Find "1"; `Find "nope"; `Add ("new", "fresh"); `Find "new"; `Find "3";
            `Find "1"; `Add ("3", "replaced"); `Find "3"; `Add ("2", "second");
            `Add ("1", String.make 14_000 'x') ];
          [ `Find "2"; `Find "4"; `Find "0"; `Find "3"; `Add ("0", "zero") ];
        ]
      in
      let run sub via_txn =
        let d = Filename.concat dir sub in
        let store = Store.open_ ~capacity:16_000 ~dir:d () in
        fill store 5;
        ignore (Store.find store "2");
        ignore (Store.find store "1");
        (if via_txn then
           List.map
             (fun ops ->
               let txn = Store.txn_begin store in
               List.iter
                 (function
                   | `Find key -> ignore (Store.txn_find txn key)
                   | `Add (key, data) -> Store.txn_add txn key data)
                 ops;
               txn)
             history
           |> List.iter Store.txn_commit
         else
           List.iter
             (List.iter (function
               | `Find key -> ignore (Store.find store key)
               | `Add (key, data) -> Store.add store key data))
             history);
        let stats = Store.stats store in
        Store.close store;
        (stats, read_file (Filename.concat d "index"),
         read_file (Filename.concat d "payload"))
      in
      let s1, index1, payload1 = run "txn" true in
      let s2, index2, payload2 = run "direct" false in
      Alcotest.(check bool) "an entry was evicted" true (s2.Store.evictions > 0);
      Alcotest.(check bool) "same counters" true (s1 = s2);
      Alcotest.(check string) "same index bytes" index2 index1;
      Alcotest.(check string) "same payload bytes" payload2 payload1)

let test_reads_after_file_replaced () =
  with_store_dir (fun dir ->
      let store = Store.open_ ~dir () in
      Fun.protect ~finally:(fun () -> Store.close store) (fun () ->
          fill store 3;
          Alcotest.(check (option string)) "hit before" (Some (artifact 1))
            (Store.find store "1");
          (* Replacing a 600 KiB artifact twice leaves more dead bytes
             than live ones and than 1 MiB: the next add compacts. *)
          let big c = String.make (600 * 1024) c in
          List.iter (fun c -> Store.add store "big" (big c)) [ 'a'; 'b'; 'c' ];
          let s = Store.stats store in
          Alcotest.(check bool) "compacted" true (s.Store.payload_bytes < 1024 * 1024);
          List.iter
            (fun i ->
              Alcotest.(check (option string)) "hit after compaction"
                (Some (artifact i)) (Store.find store (string_of_int i)))
            [ 0; 1; 2 ];
          Alcotest.(check (option string)) "latest big" (Some (big 'c'))
            (Store.find store "big");
          Store.clear store;
          Store.add store "after" "clear";
          Alcotest.(check (option string)) "hit after clear" (Some "clear")
            (Store.find store "after"));
      let ws = Buildsys.create ~cache_dir:dir ~dir () in
      let session = Buildsys.open_session ws in
      Fun.protect ~finally:(fun () -> Buildsys.close_session session) (fun () ->
          let store () = Option.get (Buildsys.session_store session) in
          Alcotest.(check (option string)) "hit before reopen" (Some "clear")
            (Store.find (store ()) "after");
          Store.add (store ()) "more" "bytes";
          Buildsys.reopen_store session;
          Alcotest.(check (option string)) "hit after reopen" (Some "clear")
            (Store.find (store ()) "after");
          Alcotest.(check (option string)) "added before reopen" (Some "bytes")
            (Store.find (store ()) "more")))

let test_corruption_after_peek_quarantined () =
  with_store_dir (fun dir ->
      let store = Store.open_ ~dir () in
      Fun.protect ~finally:(fun () -> Store.close store) (fun () ->
          Store.add store "key" "precious-artifact";
          let txn = Store.txn_begin store in
          Alcotest.(check (option string)) "peeked" (Some "precious-artifact")
            (Store.txn_find txn "key");
          (* Flip a payload byte in place, after the peek verified it. *)
          let path = Filename.concat dir "payload" in
          let raw = Bytes.of_string (read_file path) in
          let pos = Fsio.frame_overhead + 3 in
          Bytes.set raw pos (Char.chr (Char.code (Bytes.get raw pos) lxor 0x20));
          write_file path (Bytes.to_string raw);
          Store.txn_commit txn;
          Alcotest.(check int) "commit books the verified hit" 1
            (Store.stats store).Store.hits;
          Alcotest.(check (option string)) "a real find misses" None
            (Store.find store "key");
          let qdir = Filename.concat dir "quarantine" in
          Alcotest.(check bool) "damaged record quarantined" true
            (Sys.file_exists qdir && Array.length (Sys.readdir qdir) > 0)))

(* ---------- the function codec ---------- *)

let test_funcodec_roundtrip_and_overwrite () =
  let f = Helpers.make_linear_func "fn" in
  let bytes = Funcodec.encode f in
  let g = Funcodec.decode bytes in
  Alcotest.(check string) "name" f.Func.name g.Func.name;
  Alcotest.(check int) "arity" f.Func.arity g.Func.arity;
  Alcotest.(check string) "identical functions encode identically" bytes
    (Funcodec.encode g);
  (* Overwrite a sibling in place, as the phase cache does to a
     loader-acquired function. *)
  let dst = Func.create ~name:"fn" ~arity:2 ~linkage:Func.Exported in
  Funcodec.overwrite ~dst g;
  Alcotest.(check string) "overwrite reproduces the body" bytes
    (Funcodec.encode dst)

(* ---------- invalidation closures ---------- *)

let frontend sources = Pipeline.frontend sources

let test_invalidate_components () =
  let part = Invalidate.compute (frontend (app ())) in
  Alcotest.(check (list (list string))) "two components"
    [ [ "mod_a"; "mod_b" ]; [ "mod_c"; "mod_d" ] ]
    (Invalidate.components part);
  Alcotest.(check (list string)) "closure of mod_d" [ "mod_c"; "mod_d" ]
    (Invalidate.closure part ~changed:[ "mod_d" ]);
  Alcotest.(check (list string)) "closure of mod_b" [ "mod_a"; "mod_b" ]
    (Invalidate.closure part ~changed:[ "mod_b" ]);
  Alcotest.(check (list string)) "closure of both"
    [ "mod_a"; "mod_b"; "mod_c"; "mod_d" ]
    (Invalidate.closure part ~changed:[ "mod_b"; "mod_d" ]);
  Alcotest.(check bool) "tally couples mod_c and mod_d" true
    (List.mem "tally" (Invalidate.global_refs part "mod_d"))

let test_invalidate_global_only_coupling () =
  (* No call edge between the two modules — only the shared global
     must merge them, because IPA folds never-stored globals. *)
  let sources =
    [
      { Pipeline.name = "g1"; text = "global shared = 5; func main() { return shared; }" };
      { Pipeline.name = "g2"; text = "extern global shared; func peek() { return shared + 1; }" };
    ]
  in
  let part = Invalidate.compute (frontend sources) in
  Alcotest.(check (list (list string))) "one component" [ [ "g1"; "g2" ] ]
    (Invalidate.components part)

(* ---------- differential: cached builds are bit-identical ---------- *)

let test_warm_rebuild_identical_and_free () =
  with_store (fun store ->
      let sources = app () in
      let cold = Pipeline.compile ~cache:store Options.o4 sources in
      let hlo_before = Phase.funcs_processed () in
      let warm = Pipeline.compile ~cache:store Options.o4 sources in
      Alcotest.(check int) "zero HLO phase work when warm" 0
        (Phase.funcs_processed () - hlo_before);
      Alcotest.(check bool) "HLO skipped entirely" true
        (warm.Pipeline.report.Pipeline.hlo = None);
      let usage = cache_usage warm in
      Alcotest.(check int) "no module misses" 0 usage.Pipeline.misses;
      Alcotest.(check (list string)) "all four modules from the store"
        [ "mod_a"; "mod_b"; "mod_c"; "mod_d" ]
        (List.sort compare usage.Pipeline.cmo_cached);
      Alcotest.(check (list string)) "nothing re-optimized" []
        usage.Pipeline.cmo_reoptimized;
      check_same_image "warm = cold" (image cold) (image warm);
      let expected = interp_reference sources in
      let o = Pipeline.run warm in
      Alcotest.(check int64) "warm build runs right" expected.Interp.ret
        o.Vm.ret;
      Alcotest.(check (list int64)) "warm build prints right"
        expected.Interp.output o.Vm.output)

let test_warm_rebuild_identical_under_pbo () =
  (* +P disables partial reuse (cloning budgets are program-wide) but
     whole-set reuse must still hit and stay bit-identical. *)
  with_store (fun store ->
      let sources = app () in
      let db = Pipeline.train sources in
      let cold = Pipeline.compile ~profile:db ~cache:store Options.o4_pbo sources in
      let hlo_before = Phase.funcs_processed () in
      let warm = Pipeline.compile ~profile:db ~cache:store Options.o4_pbo sources in
      Alcotest.(check int) "zero HLO phase work when warm" 0
        (Phase.funcs_processed () - hlo_before);
      check_same_image "warm = cold (+O4 +P)" (image cold) (image warm);
      let uncached = Pipeline.compile ~profile:db Options.o4_pbo sources in
      check_same_image "cached = uncached (+O4 +P)" (image uncached)
        (image warm))

let test_one_module_edit_reoptimizes_closure_only () =
  with_store (fun store ->
      ignore (Pipeline.compile ~cache:store Options.o4 (app ()));
      (* Edit the dead-library component: only {mod_c, mod_d} may be
         re-optimized, and the image must match a fresh uncached
         compile of the edited program. *)
      let edited = app ~kd:77 () in
      let incr = Pipeline.compile ~cache:store Options.o4 edited in
      let usage = cache_usage incr in
      Alcotest.(check (list string)) "closure re-optimized"
        [ "mod_c"; "mod_d" ]
        (List.sort compare usage.Pipeline.cmo_reoptimized);
      Alcotest.(check (list string)) "live component untouched"
        [ "mod_a"; "mod_b" ]
        (List.sort compare usage.Pipeline.cmo_cached);
      let fresh = Pipeline.compile Options.o4 edited in
      check_same_image "incremental = fresh" (image fresh) (image incr);
      (* Now edit the live component; behaviour must track the edit. *)
      let edited = app ~kd:77 ~kb:9 () in
      let incr = Pipeline.compile ~cache:store Options.o4 edited in
      let usage = cache_usage incr in
      Alcotest.(check (list string)) "live closure re-optimized"
        [ "mod_a"; "mod_b" ]
        (List.sort compare usage.Pipeline.cmo_reoptimized);
      let fresh = Pipeline.compile Options.o4 edited in
      check_same_image "incremental = fresh (live edit)" (image fresh)
        (image incr);
      let expected = interp_reference edited in
      let o = Pipeline.run incr in
      Alcotest.(check (list int64)) "edited behaviour tracks the edit"
        expected.Interp.output o.Vm.output)

let test_edit_revert_full_hit () =
  with_store (fun store ->
      let original = Pipeline.compile ~cache:store Options.o4 (app ()) in
      ignore (Pipeline.compile ~cache:store Options.o4 (app ~kb:9 ()));
      let reverted = Pipeline.compile ~cache:store Options.o4 (app ()) in
      Alcotest.(check (list string)) "revert is a full hit" []
        (cache_usage reverted).Pipeline.cmo_reoptimized;
      check_same_image "revert = original" (image original) (image reverted))

let test_cache_usage_job_invariant () =
  (* The usage report — hit/miss traffic included — is part of the
     deterministic build output: a worker pool must produce the same
     accounting as the sequential oracle, cold, warm, and across an
     edit. *)
  let snapshot (u : Pipeline.cache_usage) =
    ( u.Pipeline.hits,
      u.Pipeline.misses,
      List.sort compare u.Pipeline.cmo_cached,
      List.sort compare u.Pipeline.cmo_reoptimized )
  in
  let lifecycle jobs =
    with_store (fun store ->
        let build sources =
          snapshot
            (cache_usage
               (Pipeline.compile ~cache:store
                  { Options.o4 with Options.jobs }
                  sources))
        in
        [ build (app ()); build (app ()); build (app ~kd:77 ()) ])
  in
  let seq = lifecycle 1 and par = lifecycle 4 in
  List.iteri
    (fun i (s, p) ->
      let stage = List.nth [ "cold"; "warm"; "edited" ] i in
      let pp (h, m, c, r) =
        Printf.sprintf "hits=%d misses=%d cached=[%s] reopt=[%s]" h m
          (String.concat "," c) (String.concat "," r)
      in
      Alcotest.(check string)
        (Printf.sprintf "%s usage: j=4 matches j=1" stage)
        (pp s) (pp p))
    (List.combine seq par)

let test_buildsys_warm_build_skips_hlo () =
  (* The acceptance criterion end to end: a make-style null rebuild
     through Buildsys performs zero HLO phase work yet produces the
     same image. *)
  let dir = Filename.temp_file "cmo_ws_cache" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      let ws = Buildsys.create ~dir () in
      let sources = app () in
      let first = Buildsys.build ws Options.o4 sources in
      let hlo_before = Phase.funcs_processed () in
      let second = Buildsys.build ws Options.o4 sources in
      Alcotest.(check int) "null rebuild: zero HLO work" 0
        (Phase.funcs_processed () - hlo_before);
      Alcotest.(check int) "null rebuild: no frontend work" 0
        (List.length second.Buildsys.recompiled);
      check_same_image "null rebuild image"
        (image first.Buildsys.build)
        (image second.Buildsys.build);
      (* clean wipes the cache directory too. *)
      Buildsys.clean ws;
      Alcotest.(check bool) "clean removed the cache dir" false
        (Sys.file_exists (Buildsys.cache_dir ws)))

(* ---------- property: random edit histories never go stale ---------- *)

let edit_history_arb =
  (* A history is a sequence of (which constant, new value) edits. *)
  QCheck.make
    ~print:(fun h ->
      String.concat ";"
        (List.map (fun (w, v) -> Printf.sprintf "%c=%d" w v) h))
    QCheck.Gen.(
      list_size (int_range 1 4)
        (pair (map (fun b -> if b then 'b' else 'd') bool) (int_range 1 50)))

let test_random_edits_never_stale =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random edit histories: cached = uncached"
       ~count:12 edit_history_arb (fun history ->
         with_store (fun store ->
             let kb = ref 3 and kd = ref 10 in
             ignore (Pipeline.compile ~cache:store Options.o4 (app ()));
             List.for_all
               (fun (which, v) ->
                 Printf.printf "edit %c=%d\n%!" which v;
                 if which = 'b' then kb := v else kd := v;
                 let sources = app ~kb:!kb ~kd:!kd () in
                 let cached = Pipeline.compile ~cache:store Options.o4 sources in
                 let fresh = Pipeline.compile Options.o4 sources in
                 (image cached).Cmo_link.Image.code
                 = (image fresh).Cmo_link.Image.code
                 && (Pipeline.run ~fuel:100_000_000 cached).Vm.output
                    = (Pipeline.run ~fuel:100_000_000 fresh).Vm.output)
               history)))

let suite =
  [
    ("fingerprint basics", `Quick, test_fingerprint_basics);
    ("fingerprint known answers", `Quick, test_fingerprint_known_answers);
    ("store roundtrip/counters", `Quick, test_store_roundtrip_and_counters);
    ("store persistence", `Quick, test_store_persistence);
    ("store replace", `Quick, test_store_replace);
    ("store LRU eviction", `Quick, test_store_lru_eviction);
    ("store clear", `Quick, test_store_clear);
    ("store corrupt index", `Quick, test_store_corrupt_index_tolerated);
    ("txn commit reads each hit once", `Quick, test_txn_commit_reads_once);
    ("txn commit bytes equal direct finds", `Quick, test_txn_commit_bytes_equal_direct);
    ("reads after compaction, clear, reopen", `Quick, test_reads_after_file_replaced);
    ("corruption after peek quarantined", `Quick, test_corruption_after_peek_quarantined);
    ("funcodec roundtrip", `Quick, test_funcodec_roundtrip_and_overwrite);
    ("invalidate components", `Quick, test_invalidate_components);
    ("invalidate global coupling", `Quick, test_invalidate_global_only_coupling);
    ("warm rebuild identical+free", `Quick, test_warm_rebuild_identical_and_free);
    ("warm rebuild under +P", `Quick, test_warm_rebuild_identical_under_pbo);
    ("one-module edit closure", `Quick, test_one_module_edit_reoptimizes_closure_only);
    ("edit then revert", `Quick, test_edit_revert_full_hit);
    ("cache usage job-invariant", `Quick, test_cache_usage_job_invariant);
    ("buildsys warm build", `Quick, test_buildsys_warm_build_skips_hlo);
    test_random_edits_never_stale;
  ]
