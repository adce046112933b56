(* Tests for the profile subsystem: probe insertion, the profile
   database (persistence, merging), training runs, and correlation. *)

module Db = Cmo_profile.Db
module Probe = Cmo_profile.Probe
module Train = Cmo_profile.Train
module Correlate = Cmo_profile.Correlate
module Func = Cmo_il.Func
module Instr = Cmo_il.Instr
module Interp = Cmo_il.Interp

let loop_program =
  {|
  global acc;
  func work(n) {
    var i = 0;
    while (i < n) { acc = acc + i; i = i + 1; }
    return acc;
  }
  func rare() { return 999; }
  func main() {
    work(100);
    if (acc < 0) { rare(); }
    return acc;
  }
  |}

let test_instrument_preserves_behaviour () =
  let m = Helpers.compile loop_program in
  let instrumented, _manifest = Probe.instrument [ m ] in
  Helpers.check_same_behaviour "instrumented behaves identically" [ m ]
    instrumented

let test_instrument_does_not_mutate_original () =
  let m = Helpers.compile loop_program in
  let before = Cmo_il.Ilmod.instr_count m in
  let _ = Probe.instrument [ m ] in
  Alcotest.(check int) "original untouched" before (Cmo_il.Ilmod.instr_count m)

let test_instrument_probe_per_block_and_edge () =
  let m = Helpers.compile loop_program in
  let blocks =
    List.fold_left (fun acc f -> acc + List.length f.Func.blocks) 0
      m.Cmo_il.Ilmod.funcs
  in
  let branches =
    List.fold_left
      (fun acc f ->
        acc
        + List.length
            (List.filter
               (fun (b : Func.block) ->
                 match b.Func.term with Instr.Br _ -> true | _ -> false)
               f.Func.blocks))
      0 m.Cmo_il.Ilmod.funcs
  in
  let _, manifest = Probe.instrument [ m ] in
  Alcotest.(check int) "one probe per block plus two per branch"
    (blocks + (2 * branches))
    (Probe.probe_count manifest)

let test_training_counts () =
  let m = Helpers.compile loop_program in
  let db = Db.create () in
  let _ = Train.run [ m ] db in
  (* The loop body in [work] runs 100 times. *)
  let work_counts =
    List.filter_map
      (fun (k, v) ->
        match k with Db.Block ("work", _) -> Some v | _ -> None)
      (Db.entries db)
  in
  Alcotest.(check bool) "some block ran 100 times" true
    (List.exists (fun v -> v = 100.0) work_counts);
  (* [rare] never runs. *)
  List.iter
    (fun (k, v) ->
      match k with
      | Db.Block ("rare", _) ->
        Alcotest.(check (float 0.0)) "rare never counted" 0.0 v
      | _ -> ())
    (Db.entries db)

let test_training_accumulates () =
  let m = Helpers.compile loop_program in
  let db = Db.create () in
  let _ = Train.run [ m ] db in
  let t1 = Db.total db in
  let _ = Train.run [ m ] db in
  Alcotest.(check (float 0.001)) "second run doubles counts" (2.0 *. t1)
    (Db.total db)

let test_db_save_load () =
  let m = Helpers.compile loop_program in
  let db = Db.create () in
  let _ = Train.run [ m ] db in
  let path = Filename.temp_file "cmo_profile" ".db" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Db.save db path;
      let loaded = Db.load path in
      Alcotest.(check int) "same entry count"
        (List.length (Db.entries db))
        (List.length (Db.entries loaded));
      Alcotest.(check (float 0.001)) "same total" (Db.total db) (Db.total loaded))

let test_db_merge () =
  let a = Db.create () in
  let b = Db.create () in
  Db.add a (Db.Fentry "f") 10.0;
  Db.add b (Db.Fentry "f") 5.0;
  Db.add b (Db.Block ("g", 0)) 7.0;
  Db.merge ~into:a b;
  Alcotest.(check (float 0.0)) "merged fentry" 15.0 (Db.get a (Db.Fentry "f"));
  Alcotest.(check (float 0.0)) "merged block" 7.0 (Db.get a (Db.Block ("g", 0)))

let test_db_entries_sorted_deterministic () =
  let a = Db.create () in
  Db.add a (Db.Block ("z", 3)) 1.0;
  Db.add a (Db.Block ("a", 1)) 1.0;
  Db.add a (Db.Fentry "m") 1.0;
  let e1 = Db.entries a in
  let e2 = Db.entries a in
  Alcotest.(check bool) "stable order" true (e1 = e2)

let test_correlate_annotates_blocks () =
  let m = Helpers.compile loop_program in
  let db = Db.create () in
  let _ = Train.run [ m ] db in
  let stats = Correlate.annotate db [ m ] in
  Alcotest.(check int) "all functions matched" stats.Correlate.functions
    stats.Correlate.functions_with_profile;
  let work = Option.get (Cmo_il.Ilmod.find_func m "work") in
  let hot =
    List.exists (fun (b : Func.block) -> b.Func.freq >= 100.0) work.Func.blocks
  in
  Alcotest.(check bool) "hot loop annotated" true hot

let test_correlate_call_counts () =
  let m = Helpers.compile loop_program in
  let db = Db.create () in
  let _ = Train.run [ m ] db in
  ignore (Correlate.annotate db [ m ]);
  let main = Option.get (Cmo_il.Ilmod.find_func m "main") in
  let counts =
    List.filter_map
      (fun (_, (c : Instr.call)) ->
        if c.Instr.callee = "work" then Some c.Instr.call_count else None)
      (Func.site_calls main)
  in
  Alcotest.(check (list (float 0.0))) "work called once" [ 1.0 ] counts

let test_correlate_stale_profile_graceful () =
  let m = Helpers.compile loop_program in
  let db = Db.create () in
  let _ = Train.run [ m ] db in
  (* "New" code the profile has never seen. *)
  let changed =
    Helpers.compile "func brand_new() { return 1; } func main() { return brand_new(); }"
  in
  let stats = Correlate.annotate db [ changed ] in
  (* [main] exists in both versions and may partially match; the new
     function must not. *)
  Alcotest.(check bool) "not everything matched" true
    (stats.Correlate.blocks_matched < stats.Correlate.blocks);
  (* The drift must be *visible*: the profile's keys for functions
     that no longer exist (work, the old main body) are surfaced, not
     silently dropped. *)
  Alcotest.(check bool) "unmatched keys surfaced" true
    (stats.Correlate.unmatched_keys > 0);
  Alcotest.(check bool) "unmatched weight surfaced" true
    (stats.Correlate.unmatched_weight > 0.0);
  let f = Option.get (Cmo_il.Ilmod.find_func changed "brand_new") in
  List.iter
    (fun (b : Func.block) ->
      Alcotest.(check (float 0.0)) "cold blocks" 0.0 b.Func.freq)
    f.Func.blocks;
  (* A fresh profile of the current program has no unmatched weight. *)
  let fresh = Db.create () in
  let _ = Train.run [ changed ] fresh in
  let fresh_stats = Correlate.annotate fresh [ changed ] in
  Alcotest.(check int) "fresh profile: no unmatched keys" 0
    fresh_stats.Correlate.unmatched_keys;
  Alcotest.(check (float 0.0)) "fresh profile: no unmatched weight" 0.0
    fresh_stats.Correlate.unmatched_weight

(* A stale profile with many keys that match nothing: keys of routines
   that no longer exist, blocks past the end of live routines, and
   edges with one dead end, with counts of mixed magnitude so the
   float sum depends on its order.  The count and the exact weight
   must equal the fold over [Db.entries] (key order) that correlation
   used to run. *)
let test_correlate_unmatched_weight () =
  let m = Helpers.compile loop_program in
  let db = Db.create () in
  let _ = Train.run [ m ] db in
  let rng = Random.State.make [| 20 |] in
  let count () =
    Random.State.float rng 1.0 *. (10.0 ** float_of_int (Random.State.int rng 12))
  in
  let fnames = [| "work"; "main"; "rare"; "gone"; "old_main"; "helper_7" |] in
  for i = 0 to 2_999 do
    let f = fnames.(Random.State.int rng (Array.length fnames)) in
    let l = Random.State.int rng 40 in
    let key =
      match i mod 3 with
      | 0 -> Db.Fentry (Printf.sprintf "%s_%d" f (i mod 50))
      | 1 -> Db.Block (f, l)
      | _ -> Db.Edge (f, l, Random.State.int rng 40)
    in
    Db.add db key (count ())
  done;
  let funcs = Hashtbl.create 8 and blocks = Hashtbl.create 64 in
  List.iter
    (fun (f : Func.t) ->
      Hashtbl.replace funcs f.Func.name ();
      List.iter
        (fun (b : Func.block) -> Hashtbl.replace blocks (f.Func.name, b.Func.label) ())
        f.Func.blocks)
    m.Cmo_il.Ilmod.funcs;
  let expected_keys, expected_weight =
    List.fold_left
      (fun (keys, weight) (key, count) ->
        let matched =
          match key with
          | Db.Fentry f -> Hashtbl.mem funcs f
          | Db.Block (f, l) -> Hashtbl.mem blocks (f, l)
          | Db.Edge (f, a, b) -> Hashtbl.mem blocks (f, a) && Hashtbl.mem blocks (f, b)
        in
        if matched then (keys, weight) else (keys + 1, weight +. count))
      (0, 0.0) (Db.entries db)
  in
  let stats = Correlate.annotate db [ m ] in
  Alcotest.(check bool) "many keys unmatched" true (expected_keys > 1_000);
  Alcotest.(check int) "unmatched keys" expected_keys stats.Correlate.unmatched_keys;
  Alcotest.(check int64) "unmatched weight, to the bit"
    (Int64.bits_of_float expected_weight)
    (Int64.bits_of_float stats.Correlate.unmatched_weight)

let test_correlate_clear () =
  let m = Helpers.compile loop_program in
  let db = Db.create () in
  let _ = Train.run [ m ] db in
  ignore (Correlate.annotate db [ m ]);
  Correlate.clear [ m ];
  List.iter
    (fun f ->
      List.iter
        (fun (b : Func.block) ->
          Alcotest.(check (float 0.0)) "cleared" 0.0 b.Func.freq)
        f.Func.blocks)
    m.Cmo_il.Ilmod.funcs

let test_correlate_edge_counts () =
  let src =
    {|
    func main() {
      var i = 0;
      var odd = 0;
      while (i < 10) {
        if (i % 2 == 1) { odd = odd + 1; }
        i = i + 1;
      }
      return odd;
    }
    |}
  in
  let m = Helpers.compile src in
  let db = Db.create () in
  let _ = Train.run [ m ] db in
  (* Find the if-branch: an edge executed 5 times must exist. *)
  let edges =
    List.filter_map
      (fun (k, v) -> match k with Db.Edge _ -> Some v | _ -> None)
      (Db.entries db)
  in
  Alcotest.(check bool) "some edge ran 5 times" true (List.mem 5.0 edges);
  Alcotest.(check bool) "some edge ran 10 times" true (List.mem 10.0 edges)

let test_record_counters_unknown_probe_ignored () =
  let m = Helpers.compile "func main() { return 0; }" in
  let _, manifest = Probe.instrument [ m ] in
  let db = Db.create () in
  Probe.record_counters manifest [ (9999, 5L) ] db;
  (* The foreign counter contributes nothing; known probes are
     recorded as explicit zeros. *)
  Alcotest.(check (float 0.0)) "no count recorded" 0.0 (Db.total db);
  Alcotest.(check int) "one zero entry per probe"
    (Probe.probe_count manifest)
    (List.length (Db.entries db))

let suite =
  [
    ("instrumentation preserves behaviour", `Quick, test_instrument_preserves_behaviour);
    ("instrumentation copies", `Quick, test_instrument_does_not_mutate_original);
    ("probe placement", `Quick, test_instrument_probe_per_block_and_edge);
    ("training counts match execution", `Quick, test_training_counts);
    ("training accumulates", `Quick, test_training_accumulates);
    ("db save/load", `Quick, test_db_save_load);
    ("db merge", `Quick, test_db_merge);
    ("db deterministic order", `Quick, test_db_entries_sorted_deterministic);
    ("correlate annotates blocks", `Quick, test_correlate_annotates_blocks);
    ("correlate call counts", `Quick, test_correlate_call_counts);
    ("correlate stale profile", `Quick, test_correlate_stale_profile_graceful);
    ("correlate unmatched weight", `Quick, test_correlate_unmatched_weight);
    ("correlate clear", `Quick, test_correlate_clear);
    ("correlate edge counts", `Quick, test_correlate_edge_counts);
    ("unknown probes ignored", `Quick, test_record_counters_unknown_probe_ignored);
  ]
