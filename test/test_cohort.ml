(* Profile cohorts: the named registry (layout, persistence, canonical
   pulls, gc compaction) and the pure selection-diff engine (symmetric
   difference of hot sets, the would-flip verdict, and the canonical
   report codec), plus the Fleet A/B arm generator the canary bench
   and CI smoke are built on. *)

module Db = Cmo_profile.Db
module Ingest = Cmo_profile.Ingest
module Cohort = Cmo_profile.Cohort
module Diff = Cmo_profile.Cohort.Diff
module Fleet = Cmo_workload.Fleet
module Prng = Cmo_support.Prng
module Codec = Cmo_support.Codec

let with_dir f = Helpers.with_dir ~prefix:"cmo_cohort" f

(* Deterministic synthetic shards, distinct content per index. *)
let mk_shard i =
  let prng = Prng.create (9100 + (i * 173)) in
  let db = Db.create () in
  let funcs = [| "alpha"; "beta"; "gamma"; "delta" |] in
  for _ = 1 to 6 + Prng.int prng 8 do
    let f = Prng.choose prng funcs in
    let key =
      match Prng.int prng 3 with
      | 0 -> Db.Fentry f
      | 1 -> Db.Block (f, Prng.int prng 5)
      | _ -> Db.Edge (f, Prng.int prng 5, Prng.int prng 5)
    in
    Db.add db key (float_of_int (1 + Prng.int prng 400))
  done;
  {
    Ingest.meta =
      { Ingest.source_fp = "fp"; sample_rate = 1.0; weight = 1.0; age = 0 };
    db;
  }

let shards = List.init 6 mk_shard
let policy = Ingest.default_policy ~current_fp:"fp"

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

(* ---------- names ---------- *)

let test_names () =
  List.iter
    (fun n ->
      Alcotest.(check bool) ("valid: " ^ n) true (Cohort.valid_name n))
    [ "stable"; "canary-2"; "a"; "r1.2_rc"; String.make 64 'x' ];
  List.iter
    (fun n ->
      Alcotest.(check bool) ("invalid: " ^ String.escaped n) false
        (Cohort.valid_name n))
    [
      "";
      ".hidden";
      "-dash";
      "a/b";
      "a b";
      "a\nb";
      "..";
      String.make 65 'x';
    ];
  with_dir @@ fun dir ->
  let reg = Cohort.open_ ~dir in
  match Cohort.create reg "../escape" with
  | () -> Alcotest.fail "bad name accepted"
  | exception Cohort.Bad_name _ -> ()

(* ---------- registry basics ---------- *)

let test_registry_basics () =
  with_dir @@ fun dir ->
  let reg = Cohort.open_ ~dir in
  Alcotest.(check bool) "absent before create" false (Cohort.exists reg "s");
  Cohort.create reg "s";
  Cohort.create reg "s";
  Alcotest.(check bool) "created" true (Cohort.exists reg "s");
  Cohort.create reg "a";
  (match Cohort.list reg with
  | [ a; s ] ->
    Alcotest.(check string) "listing sorted" "a" a.Cohort.ci_name;
    Alcotest.(check string) "listing sorted (2)" "s" s.Cohort.ci_name
  | l -> Alcotest.failf "list returned %d entries" (List.length l));
  (* A reopened registry sees the same state: the directory is the
     registry. *)
  let reg' = Cohort.open_ ~dir in
  Alcotest.(check bool) "reopen sees the cohort" true (Cohort.exists reg' "s");
  Cohort.remove reg' "a";
  Cohort.remove reg' "a";
  Alcotest.(check int) "remove is idempotent" 1
    (List.length (Cohort.list reg'))

(* ---------- canonical pulls ---------- *)

let test_pull_canonical () =
  with_dir @@ fun dir ->
  let r1 = Cohort.open_ ~dir:(Filename.concat dir "r1") in
  let r2 = Cohort.open_ ~dir:(Filename.concat dir "r2") in
  Alcotest.(check int) "ingest counts" (List.length shards)
    (Cohort.ingest_into r1 "c" shards);
  Alcotest.(check int) "reversed ingest counts" (List.length shards)
    (Cohort.ingest_into r2 "c" (List.rev shards));
  let p1 = Db.encode (fst (Cohort.pull r1 ~policy "c")) in
  let p2 = Db.encode (fst (Cohort.pull r2 ~policy "c")) in
  Alcotest.(check bool) "arrival order cannot change the pull" true (p1 = p2);
  let local, _ = Ingest.ingest ~policy shards in
  Alcotest.(check bool) "pull equals a local ingest, byte for byte" true
    (p1 = Db.encode local);
  (* Appending in two batches is the same pack as one. *)
  let r3 = Cohort.open_ ~dir:(Filename.concat dir "r3") in
  let k = List.length shards / 2 in
  ignore (Cohort.ingest_into r3 "c" (List.filteri (fun i _ -> i < k) shards));
  ignore (Cohort.ingest_into r3 "c" (List.filteri (fun i _ -> i >= k) shards));
  Alcotest.(check bool) "batched ingest pulls identically" true
    (p1 = Db.encode (fst (Cohort.pull r3 ~policy "c")));
  (* A missing cohort is an empty database, not an error. *)
  let empty, st = Cohort.pull r1 ~policy "no-such" in
  Alcotest.(check bool) "missing cohort pulls empty" true (Db.is_empty empty);
  Alcotest.(check int) "missing cohort merges nothing" 0 st.Ingest.ing_shards

(* ---------- gc ---------- *)

let test_gc () =
  with_dir @@ fun dir ->
  let reg = Cohort.open_ ~dir in
  ignore (Cohort.ingest_into reg "keep" shards);
  ignore (Cohort.ingest_into reg "drop-me" shards);
  (* Plant damage mid-pack: flip one byte of a frame body. *)
  let pack = Filename.concat dir "keep.pack" in
  let raw = read_raw pack in
  write_raw pack (Helpers.flip_byte raw (String.length raw / 2) 0x20);
  let _, damaged = Cohort.shards reg "keep" in
  Alcotest.(check bool) "damage visible before gc" true (damaged > 0);
  let before = Db.encode (fst (Cohort.pull reg ~policy "keep")) in
  let st = Cohort.gc ~drop:[ "drop-me" ] reg in
  Alcotest.(check int) "one cohort dropped" 1 st.Cohort.gc_removed;
  Alcotest.(check int) "one cohort kept" 1 st.Cohort.gc_cohorts;
  Alcotest.(check bool) "damage compacted away" true
    (st.Cohort.gc_damage_dropped > 0);
  Alcotest.(check bool) "compaction reclaimed bytes" true
    (st.Cohort.gc_bytes_reclaimed > 0);
  let _, damaged' = Cohort.shards reg "keep" in
  Alcotest.(check int) "pack clean after gc" 0 damaged';
  Alcotest.(check bool) "gc cannot change the pull" true
    (before = Db.encode (fst (Cohort.pull reg ~policy "keep")));
  Alcotest.(check bool) "dropped cohort gone" false
    (Cohort.exists reg "drop-me")

(* ---------- the selection diff ---------- *)

let hs label mods =
  {
    Diff.hs_label = label;
    hs_modules = mods;
    hs_functions = List.map (fun (m, s) -> (m ^ "/f", s)) mods;
  }

let test_diff_verdict () =
  (* Equal hot sets: a clean no-flip with empty deltas. *)
  let stable = hs "stable" [ ("a", 0.6); ("b", 0.4) ] in
  let r = Diff.diff ~base:stable (hs "canary" [ ("a", 0.6); ("b", 0.4) ]) in
  Alcotest.(check bool) "identical sets are no-flip" true
    (r.Diff.r_verdict = Diff.No_flip
    && r.Diff.r_mod_in = []
    && r.Diff.r_mod_out = []
    && r.Diff.r_max_shift = 0.0);
  Alcotest.(check string) "labels travel" "stable" r.Diff.r_base;
  (* A module swap above threshold flips. *)
  let r = Diff.diff ~base:stable (hs "canary" [ ("a", 0.6); ("c", 0.4) ]) in
  Alcotest.(check bool) "heavy module churn flips" true
    (r.Diff.r_verdict = Diff.Flip);
  (match (r.Diff.r_mod_in, r.Diff.r_mod_out) with
  | [ mi ], [ mo ] ->
    Alcotest.(check string) "entering module" "c" mi.Diff.d_name;
    Alcotest.(check string) "leaving module" "b" mo.Diff.d_name
  | _ -> Alcotest.fail "symmetric difference wrong");
  (* The same churn below threshold is reported but does not flip. *)
  let r =
    Diff.diff
      ~base:(hs "stable" [ ("a", 0.99); ("b", 0.01) ])
      (hs "canary" [ ("a", 0.99); ("c", 0.01) ])
  in
  Alcotest.(check bool) "light module churn is no-flip" true
    (r.Diff.r_verdict = Diff.No_flip
    && r.Diff.r_mod_in <> []
    && r.Diff.r_mod_out <> []);
  (* An explicit threshold flips it. *)
  let r =
    Diff.diff ~threshold:0.005
      ~base:(hs "stable" [ ("a", 0.99); ("b", 0.01) ])
      (hs "canary" [ ("a", 0.99); ("c", 0.01) ])
  in
  Alcotest.(check bool) "tighter threshold flips the same churn" true
    (r.Diff.r_verdict = Diff.Flip);
  (* Function churn alone never triggers the verdict. *)
  let base =
    {
      Diff.hs_label = "stable";
      hs_modules = [ ("a", 1.0) ];
      hs_functions = [ ("a/f", 1.0) ];
    }
  in
  let canary =
    {
      Diff.hs_label = "canary";
      hs_modules = [ ("a", 1.0) ];
      hs_functions = [ ("a/g", 1.0) ];
    }
  in
  let r = Diff.diff ~base canary in
  Alcotest.(check bool) "function-only churn is no-flip" true
    (r.Diff.r_verdict = Diff.No_flip && r.Diff.r_fun_in <> []);
  (* Share drift inside a stable set is a shift, not a flip. *)
  let r =
    Diff.diff
      ~base:(hs "stable" [ ("a", 0.9); ("b", 0.1) ])
      (hs "canary" [ ("a", 0.1); ("b", 0.9) ])
  in
  Alcotest.(check bool) "drift reports max shift without flipping" true
    (r.Diff.r_verdict = Diff.No_flip
    && r.Diff.r_max_shift > 0.7
    && r.Diff.r_shifts <> [])

(* ---------- report codec ---------- *)

let gen_hot_set label =
  let open QCheck.Gen in
  let* names = shuffle_l [ "m1"; "m2"; "m3"; "m4"; "m5"; "m6" ] in
  let* n = 0 -- 5 in
  let chosen = List.filteri (fun i _ -> i < n) names in
  let* shares = list_repeat n (float_bound_inclusive 1.0) in
  return
    {
      Diff.hs_label = label;
      hs_modules = List.combine chosen shares;
      hs_functions =
        List.combine (List.map (fun m -> m ^ "/f") chosen) shares;
    }

let gen_report =
  let open QCheck.Gen in
  let* base = gen_hot_set "stable" in
  let* canary = gen_hot_set "canary" in
  let* threshold = float_bound_inclusive 0.1 in
  return (Diff.diff ~threshold ~base canary)

let qcheck_report_roundtrip =
  QCheck.Test.make ~name:"diff reports round-trip the canonical codec"
    ~count:200
    (QCheck.make gen_report)
    (fun r ->
      Diff.decode (Diff.encode r) = r
      && Diff.encode r = Diff.encode (Diff.decode (Diff.encode r)))

let qcheck_report_garbage =
  QCheck.Test.make ~name:"arbitrary bytes never crash the report decoder"
    ~count:200
    (QCheck.make QCheck.Gen.(string_size (0 -- 60)))
    (fun s ->
      match Diff.decode s with
      | _ -> true
      | exception Codec.Reader.Corrupt _ -> true)

(* ---------- the A/B arm generator ---------- *)

let test_fleet_arms () =
  let oracle = Db.create () in
  List.iteri
    (fun i f ->
      Db.add oracle (Db.Fentry f) (float_of_int (100 * (i + 1)));
      Db.add oracle (Db.Block (f, 0)) (float_of_int (10 * (i + 1))))
    [ "alpha"; "beta"; "gamma"; "delta" ];
  (* fraction 0 is a plain copy. *)
  Alcotest.(check bool) "divert 0 is a copy" true
    (Db.encode (Fleet.divert ~fraction:0.0 oracle) = Db.encode oracle);
  (* fraction 1 swaps counts rank-for-rank: different bytes, same
     total (the multiset of counts is preserved). *)
  let swapped = Fleet.divert ~fraction:1.0 oracle in
  Alcotest.(check bool) "divert 1 changes the database" true
    (Db.encode swapped <> Db.encode oracle);
  Alcotest.(check bool) "divert 1 preserves total mass" true
    (Float.abs (Db.total swapped -. Db.total oracle)
    < 1e-6 *. Db.total oracle);
  (* divergence 0 arms are byte-identical shard for shard. *)
  let cfg =
    {
      Fleet.users = 5;
      sample_rate = 1.0;
      stale_fraction = 0.0;
      noise = 0.1;
      fleet_seed = 3;
    }
  in
  let a, b = Fleet.ab_arms cfg ~oracle ~current_fp:"fp" ~divergence:0.0 in
  Alcotest.(check bool) "divergence 0 arms byte-identical" true
    (List.for_all2
       (fun x y -> Ingest.encode_shard x = Ingest.encode_shard y)
       a b);
  (* A planted divergence leaves arm A alone and changes only arm B. *)
  let a', b' = Fleet.ab_arms cfg ~oracle ~current_fp:"fp" ~divergence:1.0 in
  Alcotest.(check bool) "arm A independent of the divergence" true
    (List.for_all2
       (fun x y -> Ingest.encode_shard x = Ingest.encode_shard y)
       a a');
  Alcotest.(check bool) "arm B carries the divergence" true
    (List.exists2
       (fun x y -> Ingest.encode_shard x <> Ingest.encode_shard y)
       b b')

let suite =
  [
    ("cohort names", `Quick, test_names);
    ("registry basics and reopen", `Quick, test_registry_basics);
    ("canonical pulls", `Quick, test_pull_canonical);
    ("gc compaction and drop", `Quick, test_gc);
    ("diff verdicts", `Quick, test_diff_verdict);
    Helpers.to_alcotest qcheck_report_roundtrip;
    Helpers.to_alcotest qcheck_report_garbage;
    ("fleet A/B arms", `Quick, test_fleet_arms);
  ]
