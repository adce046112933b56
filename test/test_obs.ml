(* Tests for the observability subsystem: the JSON writer/parser, the
   span/counter recording API, deterministic merging across worker
   counts, and the tentpole invariant — tracing never changes what the
   compiler produces. *)

module Obs = Cmo_obs.Obs
module Json = Cmo_obs.Json
module Options = Cmo_driver.Options
module Pipeline = Cmo_driver.Pipeline

(* Every test that turns the sink on must turn it off on every exit
   path: the flag is process-global and a leak would trace the rest of
   the suite. *)
let with_sink f =
  Obs.start ();
  Fun.protect ~finally:Obs.stop f

(* ---------- JSON ---------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd\te");
        ("n", Json.Num 42.0);
        ("frac", Json.Num 1.5);
        ("neg", Json.Num (-0.25));
        ("t", Json.Bool true);
        ("z", Json.Null);
        ("a", Json.Arr [ Json.Num 1.0; Json.Str ""; Json.Obj [] ]);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
  | Error e -> Alcotest.failf "reparse failed: %s" e

let test_json_integral_numbers () =
  (* Integral floats print without a decimal point, so trace
     timestamps and counters stay compact and tool-friendly. *)
  Alcotest.(check string) "int" "[42,-3,1.5]"
    (Json.to_string (Json.Arr [ Json.Num 42.0; Json.Num (-3.0); Json.Num 1.5 ]))

let test_json_parse_escapes () =
  match Json.parse {|{"k":"aA\n\"\\"}|} with
  | Ok v ->
    Alcotest.(check (option string)) "escapes decoded" (Some "aA\n\"\\")
      (Option.bind (Json.member "k" v) Json.str)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_rejects_garbage () =
  let bad = [ "{"; "[1,]"; "{\"a\":}"; "1 2"; "\"unterminated"; "nul" ] in
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted invalid JSON %S" s
      | Error _ -> ())
    bad

(* ---------- recording ---------- *)

let test_disabled_records_nothing () =
  Alcotest.(check bool) "off by default" false (Obs.enabled ());
  Obs.span_begin "ghost";
  Obs.tick "ghost" "n" 1;
  Obs.span_end ();
  with_sink @@ fun () ->
  Alcotest.(check int) "no pre-start events" 0
    (List.length (List.concat_map snd (Obs.tracks ())))

let test_span_nesting () =
  with_sink @@ fun () ->
  Obs.with_span ~cat:"stage" "outer" (fun () ->
      Obs.with_span ~cat:"phase" "inner" (fun () -> ()));
  let s = Obs.summary () in
  Alcotest.(check int) "events" 4 s.Obs.event_count;
  Alcotest.(check int) "balanced" 0 s.Obs.open_spans;
  let labels = List.map (fun st -> st.Obs.label) s.Obs.span_stats in
  (* Stage spans keep their name; other categories aggregate. *)
  Alcotest.(check bool) "outer kept by name" true (List.mem "outer" labels);
  Alcotest.(check bool) "inner folded to cat" true (List.mem "phase" labels)

let test_stray_span_end_ignored () =
  with_sink @@ fun () ->
  Obs.span_end ();
  Obs.with_span "real" (fun () -> ());
  let s = Obs.summary () in
  Alcotest.(check int) "only the real span" 2 s.Obs.event_count;
  Alcotest.(check int) "still balanced" 0 s.Obs.open_spans

let test_span_end_on_exception () =
  with_sink @@ fun () ->
  (try Obs.with_span "raises" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "span closed across raise" 0
    (Obs.summary ()).Obs.open_spans

let test_counter_totals () =
  with_sink @@ fun () ->
  Obs.tick "cache" "hits" 2;
  Obs.tick "cache" "hits" 3;
  Obs.tick "cache" "misses" 1;
  Obs.tick "io" "bytes" 100;
  let totals = Obs.counter_totals () in
  Alcotest.(check (option (float 1e-9))) "hits accumulate" (Some 5.0)
    (List.assoc_opt "cache/hits" totals);
  Alcotest.(check (option (float 1e-9))) "misses separate" (Some 1.0)
    (List.assoc_opt "cache/misses" totals);
  Alcotest.(check (option (float 1e-9))) "names separate" (Some 100.0)
    (List.assoc_opt "io/bytes" totals)

let test_restart_drops_old_events () =
  with_sink (fun () -> Obs.with_span "first" (fun () -> ()));
  with_sink @@ fun () ->
  Obs.with_span "second" (fun () -> ());
  let begins =
    List.concat_map
      (fun (_, evs) ->
        List.filter_map
          (function Obs.Begin { name; _ } -> Some name | _ -> None)
          evs)
      (Obs.tracks ())
  in
  Alcotest.(check (list string)) "only the new trace" [ "second" ] begins

let test_export_is_valid_chrome_trace () =
  with_sink @@ fun () ->
  Obs.with_span ~cat:"stage" "s" (fun () -> Obs.tick "c" "n" 1);
  Obs.instant "mark";
  match Json.parse (Obs.export ()) with
  | Error e -> Alcotest.failf "export not valid JSON: %s" e
  | Ok (Json.Arr events) ->
    Alcotest.(check bool) "has events" true (List.length events >= 5);
    List.iter
      (fun ev ->
        Alcotest.(check bool) "every event has ph" true
          (Json.member "ph" ev <> None))
      events
  | Ok _ -> Alcotest.fail "export is not an event array"

(* ---------- the pipeline under the sink ---------- *)

let sources : Pipeline.source list =
  [
    {
      Pipeline.name = "obs_main";
      text =
        {|
        func main() {
          var s = 0;
          var i = 0;
          while (i < 20) { s = s + obs_step(i); i = i + 1; }
          print(s);
          return s;
        }
        |};
    };
    {
      Pipeline.name = "obs_util";
      text =
        {|
        func obs_step(x) { return obs_half(x) * 3 + 1; }
        static func obs_half(v) { return v / 2; }
        |};
    };
  ]

(* The (cat, name) multiset of spans, minus the "worker" lifecycle
   spans, which exist exactly when jobs > 1 and say nothing about the
   compiled program. *)
let begin_multiset () =
  List.concat_map
    (fun (_, evs) ->
      List.filter_map
        (function
          | Obs.Begin { cat = "worker"; _ } -> None
          | Obs.Begin { name; cat; _ } -> Some (cat, name)
          | _ -> None)
        evs)
    (Obs.tracks ())
  |> List.sort compare

let test_deterministic_across_jobs () =
  (* The traced span structure at +O2 is a function of the program,
     not of the worker count: per-track assignment may race, but the
     multiset of (cat, name) spans must match between -j 1 and -j 4. *)
  let run jobs =
    with_sink @@ fun () ->
    ignore (Pipeline.compile { Options.o2 with Options.jobs } sources);
    begin_multiset ()
  in
  Alcotest.(check (list (pair string string)))
    "same spans at -j 1 and -j 4" (run 1) (run 4)

let test_traced_build_byte_identical () =
  let options = { Options.o4 with Options.jobs = 4 } in
  let plain = Pipeline.compile options sources in
  let path = Filename.temp_file "cmo_obs" ".json" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let traced =
    Pipeline.compile { options with Options.trace = Some path } sources
  in
  Alcotest.(check bool) "code identical" true
    (plain.Pipeline.image.Cmo_link.Image.code
    = traced.Pipeline.image.Cmo_link.Image.code);
  Alcotest.(check bool) "objects identical" true
    (plain.Pipeline.objects = traced.Pipeline.objects);
  Alcotest.(check bool) "sink off after the build" false (Obs.enabled ());
  let text =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (match Json.parse text with
  | Ok (Json.Arr _) -> ()
  | Ok _ -> Alcotest.fail "trace file is not an event array"
  | Error e -> Alcotest.failf "trace file invalid: %s" e);
  Alcotest.(check bool) "summary attached to report" true
    (traced.Pipeline.report.Pipeline.obs <> None);
  Alcotest.(check bool) "no summary untraced" true
    (plain.Pipeline.report.Pipeline.obs = None)

let test_traced_o4_structure () =
  (* Every way to build shows the four pipeline stages as spans and
     leaves no span open; [k] checks the rest inside the same sink. *)
  let traced label build k =
    with_sink @@ fun () ->
    build ();
    let s = Obs.summary () in
    Alcotest.(check int) (label ^ ": all spans closed") 0 s.Obs.open_spans;
    let labels = List.map (fun st -> st.Obs.label) s.Obs.span_stats in
    List.iter
      (fun stage ->
        Alcotest.(check bool) (label ^ ": " ^ stage ^ " stage present") true
          (List.mem stage labels))
      [ "frontend"; "hlo"; "llo"; "link" ];
    k s
  in
  traced "one-shot +O2"
    (fun () -> ignore (Pipeline.compile Options.o2 sources))
    ignore;
  traced "cold Buildsys +O2"
    (fun () ->
      Helpers.with_dir ~prefix:"cmo_obs" (fun dir ->
          ignore
            (Cmo_driver.Buildsys.build
               (Cmo_driver.Buildsys.create ~dir ())
               Options.o2 sources)))
    ignore;
  traced "one-shot +O4 j=4"
    (fun () -> ignore (Pipeline.compile { Options.o4 with Options.jobs = 4 } sources))
  @@ fun s ->
  Alcotest.(check bool) "a worker track exists" true
    (List.exists
       (fun (name, _) ->
         String.length name > 7 && String.sub name 0 7 = "worker-")
       (Obs.tracks ()));
  Alcotest.(check bool) "loader counters recorded" true
    (List.assoc_opt "naim.loader/acquires" s.Obs.counters <> None);
  let naim_samples =
    List.concat_map
      (fun (_, evs) ->
        List.filter
          (function
            | Obs.Counter { name = "NAIM memory"; _ } -> true
            | _ -> false)
          evs)
      (Obs.tracks ())
  in
  Alcotest.(check bool) "memory timeline sampled" true (naim_samples <> [])

let test_trace_outside_fingerprint () =
  let base = { Options.o4 with Options.jobs = 4 } in
  Alcotest.(check string) "trace not fingerprinted"
    (Options.cache_fingerprint base)
    (Options.cache_fingerprint { base with Options.trace = Some "t.json" });
  Alcotest.(check bool) "level is fingerprinted" true
    (Options.cache_fingerprint base
    <> Options.cache_fingerprint { base with Options.level = Options.O2 })

let suite =
  [
    ("json round-trip", `Quick, test_json_roundtrip);
    ("json integral numbers", `Quick, test_json_integral_numbers);
    ("json escapes", `Quick, test_json_parse_escapes);
    ("json rejects garbage", `Quick, test_json_rejects_garbage);
    ("disabled records nothing", `Quick, test_disabled_records_nothing);
    ("span nesting", `Quick, test_span_nesting);
    ("stray span_end ignored", `Quick, test_stray_span_end_ignored);
    ("span closed on exception", `Quick, test_span_end_on_exception);
    ("counter totals", `Quick, test_counter_totals);
    ("restart drops old events", `Quick, test_restart_drops_old_events);
    ("export is chrome trace", `Quick, test_export_is_valid_chrome_trace);
    ("deterministic across jobs", `Quick, test_deterministic_across_jobs);
    ("traced build byte-identical", `Quick, test_traced_build_byte_identical);
    ("traced O4 structure", `Quick, test_traced_o4_structure);
    ("trace outside fingerprint", `Quick, test_trace_outside_fingerprint);
  ]
