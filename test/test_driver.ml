(* End-to-end tests of the compilation driver: option levels,
   profile-guided builds, selectivity, the build system, and bug
   isolation.  The load-bearing checks are differential: every
   optimization level must produce the same observable behaviour on
   the VM as the IL reference interpreter. *)

module Interp = Cmo_il.Interp
module Options = Cmo_driver.Options
module Pipeline = Cmo_driver.Pipeline
module Buildsys = Cmo_driver.Buildsys
module Isolate = Cmo_driver.Isolate
module Db = Cmo_profile.Db
module Vm = Cmo_vm.Vm
module Hlo = Cmo_hlo.Hlo

(* A small but structurally realistic application: four modules, a hot
   kernel behind a module boundary, cold error paths, shared globals,
   arrays, recursion, and multi-argument calls. *)
let app_sources : Pipeline.source list =
  [
    {
      Pipeline.name = "main_mod";
      text =
        {|
        extern global histogram;
        func main() {
          var n = arg(0);
          if (n <= 0) { n = 40; }
          var s = 0;
          var i = 0;
          while (i < n) {
            s = s + transform(i, s);
            if (s > 100000000) { s = overflow_handler(s); }
            i = i + 1;
          }
          record(s);
          print(s);
          print(histogram);
          return checksum(s, n);
        }
        |};
    };
    {
      Pipeline.name = "kernel_mod";
      text =
        {|
        static global weights[8] = {3, 1, 4, 1, 5, 9, 2, 6};
        func transform(x, seed) {
          var acc = seed % 977;
          var j = 0;
          while (j < 8) {
            acc = acc + weights[j] * scale(x + j);
            j = j + 1;
          }
          return acc;
        }
        static func scale(v) { return v * 2 + 1; }
        |};
    };
    {
      Pipeline.name = "stats_mod";
      text =
        {|
        global histogram;
        global bins[16];
        func record(v) {
          var b = v % 16;
          if (b < 0) { b = -b; }
          bins[b] = bins[b] + 1;
          histogram = histogram + 1;
          return 0;
        }
        func checksum(a, b) {
          var h = a * 31 + b;
          var i = 0;
          while (i < 16) { h = h ^ (bins[i] << (i % 8)); i = i + 1; }
          return h;
        }
        |};
    };
    {
      Pipeline.name = "error_mod";
      text =
        {|
        func overflow_handler(v) {
          print(999999);
          var r = v;
          while (r > 1000) { r = r / 2; }
          return r;
        }
        |};
    };
  ]

let reference ?input () =
  Interp.run ?input (Pipeline.frontend app_sources)

let profile_db () = Pipeline.train ~inputs:[ [| 40L |] ] app_sources

let check_level ?input options profile =
  let expected = reference ?input () in
  let build = Pipeline.compile ?profile options app_sources in
  let outcome = Pipeline.run ?input build in
  Alcotest.(check int64)
    (Options.to_string options ^ " return value")
    expected.Interp.ret outcome.Vm.ret;
  Alcotest.(check (list int64))
    (Options.to_string options ^ " output")
    expected.Interp.output outcome.Vm.output;
  (build, outcome)

(* ---------- correctness at every level ---------- *)

let test_o1_correct () = ignore (check_level Options.o1 None)
let test_o2_correct () = ignore (check_level Options.o2 None)

let test_o2_pbo_correct () =
  ignore (check_level Options.o2_pbo (Some (profile_db ())))

let test_o4_correct () = ignore (check_level Options.o4 None)

let test_o4_pbo_correct () =
  ignore (check_level Options.o4_pbo (Some (profile_db ())))

let test_o4_pbo_selective_correct () =
  ignore
    (check_level (Options.o4_pbo_selective 30.0) (Some (profile_db ())))

let test_levels_correct_on_other_input () =
  let db = profile_db () in
  (* Run on an input the profile never saw (including the cold
     overflow path if it triggers). *)
  List.iter
    (fun input ->
      ignore (check_level ~input Options.o4_pbo (Some db));
      ignore (check_level ~input (Options.o4_pbo_selective 25.0) (Some db)))
    [ [| 7L |]; [| 100L |]; [| 0L |] ]

(* ---------- the performance ordering (Figure 1 in miniature) ---------- *)

let test_o4_pbo_faster_than_o2 () =
  let db = profile_db () in
  let _, o2 = check_level Options.o2 None in
  let _, o4p = check_level Options.o4_pbo (Some db) in
  Alcotest.(check bool)
    (Printf.sprintf "cycles: o4+pbo %d < o2 %d" o4p.Vm.cycles o2.Vm.cycles)
    true
    (o4p.Vm.cycles < o2.Vm.cycles)

let test_o2_faster_than_o1 () =
  let _, o1 = check_level Options.o1 None in
  let _, o2 = check_level Options.o2 None in
  Alcotest.(check bool)
    (Printf.sprintf "cycles: o2 %d <= o1 %d" o2.Vm.cycles o1.Vm.cycles)
    true
    (o2.Vm.cycles <= o1.Vm.cycles)

let test_o4_pbo_fewer_calls () =
  let db = profile_db () in
  let _, o2 = check_level Options.o2 None in
  let _, o4p = check_level Options.o4_pbo (Some db) in
  Alcotest.(check bool) "inlining removed dynamic calls" true
    (o4p.Vm.calls < o2.Vm.calls)

(* ---------- reports ---------- *)

let test_report_o4_fields () =
  let db = profile_db () in
  let build = Pipeline.compile ~profile:db Options.o4_pbo app_sources in
  let r = build.Pipeline.report in
  Alcotest.(check bool) "hlo report present" true (r.Pipeline.hlo <> None);
  Alcotest.(check bool) "loader stats present" true
    (r.Pipeline.loader_stats <> None);
  Alcotest.(check bool) "memory peak recorded" true (r.Pipeline.mem_peak > 0);
  Alcotest.(check bool) "cmo covers all lines" true
    (r.Pipeline.cmo_lines = r.Pipeline.total_lines);
  match r.Pipeline.hlo with
  | Some h ->
    Alcotest.(check bool) "inlining happened" true
      (match h.Hlo.inline_stats with
      | Some s -> s.Cmo_hlo.Inline.operations > 0
      | None -> false)
  | None -> ()

let test_par_speedup_edges () =
  (* Degenerate timing fields must not divide by zero: either side
     unmeasured pins the speedup at 1.0.  Start from a real report so
     the test tracks the record's shape. *)
  let r = (Pipeline.compile Options.o2 app_sources).Pipeline.report in
  let timed =
    {
      r with
      Pipeline.frontend_seconds = 1.2;
      hlo_seconds = 0.6;
      llo_seconds = 0.2;
      frontend_wall_seconds = 0.6;
      hlo_wall_seconds = 0.3;
      llo_wall_seconds = 0.1;
    }
  in
  Alcotest.(check (float 1e-9)) "cpu/wall" 2.0 (Pipeline.par_speedup timed);
  Alcotest.(check (float 1e-9)) "cpu sums" 2.0 (Pipeline.phase_cpu_seconds timed);
  Alcotest.(check (float 1e-9)) "wall sums" 1.0
    (Pipeline.phase_wall_seconds timed);
  let zero_wall =
    {
      timed with
      Pipeline.frontend_wall_seconds = 0.0;
      hlo_wall_seconds = 0.0;
      llo_wall_seconds = 0.0;
    }
  in
  Alcotest.(check (float 1e-9)) "zero wall -> 1.0" 1.0
    (Pipeline.par_speedup zero_wall);
  let zero_cpu =
    {
      timed with
      Pipeline.frontend_seconds = 0.0;
      hlo_seconds = 0.0;
      llo_seconds = 0.0;
    }
  in
  Alcotest.(check (float 1e-9)) "zero cpu -> 1.0" 1.0
    (Pipeline.par_speedup zero_cpu)

let test_report_selective_fields () =
  let db = profile_db () in
  let build =
    Pipeline.compile ~profile:db (Options.o4_pbo_selective 25.0) app_sources
  in
  let r = build.Pipeline.report in
  Alcotest.(check bool) "selection recorded" true (r.Pipeline.selection <> None);
  Alcotest.(check bool) "cmo lines a strict subset" true
    (r.Pipeline.cmo_lines < r.Pipeline.total_lines)

let test_instrumented_build_behaviour () =
  let expected = reference () in
  let build = Pipeline.compile Options.instrumented app_sources in
  Alcotest.(check bool) "manifest present" true (build.Pipeline.manifest <> None);
  let outcome = Pipeline.run build in
  Alcotest.(check int64) "+I preserves results" expected.Interp.ret outcome.Vm.ret;
  Alcotest.(check bool) "+I counts probes" true (outcome.Vm.probes <> [])

let test_train_produces_counts () =
  let db = profile_db () in
  Alcotest.(check bool) "db has counts" true (Db.total db > 0.0)

let test_duplicate_module_names_rejected () =
  let sources =
    [
      { Pipeline.name = "dup"; text = "func main() { return 1; }" };
      { Pipeline.name = "dup"; text = "func f() { return 2; }" };
    ]
  in
  Alcotest.(check bool) "duplicate names rejected" true
    (try
       ignore (Pipeline.frontend sources);
       false
     with Pipeline.Compile_error msg ->
       let contains s sub =
         let sl = String.length sub and l = String.length s in
         let rec go i = i + sl <= l && (String.sub s i sl = sub || go (i + 1)) in
         go 0
       in
       contains msg "dup")

(* ---------- parallel code generation ---------- *)

let test_parallel_codegen_bit_identical () =
  let db = profile_db () in
  let image_with jobs =
    let options = { Options.o4_pbo with Options.jobs } in
    (Pipeline.compile ~profile:db options app_sources).Pipeline.image
  in
  let seq = image_with 1 in
  let par = image_with 4 in
  Alcotest.(check bool) "identical machine code" true
    (seq.Cmo_link.Image.code = par.Cmo_link.Image.code);
  Alcotest.(check (list (triple string int int))) "identical layout"
    seq.Cmo_link.Image.funcs par.Cmo_link.Image.funcs

let test_parallel_codegen_correct () =
  let db = profile_db () in
  ignore
    (check_level
       { Options.o4_pbo with Options.jobs = 4 }
       (Some db))

(* ---------- explicit CMO module sets (isolation axis) ---------- *)

let test_explicit_cmo_set_correct () =
  let db = profile_db () in
  List.iter
    (fun subset ->
      let options = { Options.o4_pbo with Options.cmo_modules = Some subset } in
      ignore (check_level options (Some db)))
    [
      [ "kernel_mod" ];
      [ "main_mod"; "stats_mod" ];
      [ "main_mod"; "kernel_mod"; "stats_mod"; "error_mod" ];
      [];
    ]

let test_explicit_cmo_set_overrides_selectivity () =
  let db = profile_db () in
  let options =
    { (Options.o4_pbo_selective 50.0) with
      Options.cmo_modules = Some [ "error_mod" ] }
  in
  let build = Pipeline.compile ~profile:db options app_sources in
  (* Only error_mod's lines are in the CMO set. *)
  Alcotest.(check bool) "tiny CMO set" true
    (build.Pipeline.report.Pipeline.cmo_lines
     < build.Pipeline.report.Pipeline.total_lines / 2)

(* ---------- tiered (multi-layered) selectivity ---------- *)

let test_tiered_correct () =
  let db = profile_db () in
  ignore (check_level (Options.o4_pbo_tiered 25.0) (Some db))

let test_tiered_reports_three_layers () =
  let db = profile_db () in
  let build =
    Pipeline.compile ~profile:db (Options.o4_pbo_tiered 25.0) app_sources
  in
  let r = build.Pipeline.report in
  Alcotest.(check bool) "has CMO lines" true (r.Pipeline.cmo_lines > 0);
  (* error_mod never executes on the training input (40 iterations
     never overflow), so the tiered build must classify it cold. *)
  Alcotest.(check bool) "has cold lines" true (r.Pipeline.cold_lines > 0);
  Alcotest.(check int) "layers partition the program" r.Pipeline.total_lines
    (r.Pipeline.cmo_lines + r.Pipeline.warm_lines + r.Pipeline.cold_lines)

let test_tiered_cold_code_still_correct () =
  (* Run on an input that DOES hit the cold tier: the minimally
     compiled overflow path must still behave identically. *)
  let db = profile_db () in
  ignore (check_level ~input:[| 100L |] (Options.o4_pbo_tiered 25.0) (Some db))

let test_untiered_has_no_cold_lines () =
  let db = profile_db () in
  let build =
    Pipeline.compile ~profile:db (Options.o4_pbo_selective 25.0) app_sources
  in
  Alcotest.(check int) "no cold tier" 0
    build.Pipeline.report.Pipeline.cold_lines

(* ---------- build system ---------- *)

let with_workspace f =
  Helpers.with_dir ~prefix:"cmo_ws" (fun dir -> f (Buildsys.create ~dir ()))

let test_buildsys_full_then_null_build () =
  with_workspace (fun ws ->
      let first = Buildsys.build ws Options.o2 app_sources in
      Alcotest.(check int) "all compiled" 4
        (List.length first.Buildsys.recompiled);
      let second = Buildsys.build ws Options.o2 app_sources in
      Alcotest.(check int) "nothing recompiled" 0
        (List.length second.Buildsys.recompiled);
      Alcotest.(check int) "all reused" 4 (List.length second.Buildsys.reused);
      let expected = reference () in
      let o = Pipeline.run second.Buildsys.build in
      Alcotest.(check int64) "null build runs right" expected.Interp.ret o.Vm.ret)

let test_buildsys_incremental_change () =
  with_workspace (fun ws ->
      ignore (Buildsys.build ws Options.o2 app_sources);
      let changed =
        List.map
          (fun (s : Pipeline.source) ->
            if s.Pipeline.name = "error_mod" then
              {
                s with
                Pipeline.text =
                  {|
                  func overflow_handler(v) {
                    print(888888);
                    var r = v;
                    while (r > 500) { r = r / 3; }
                    return r;
                  }
                  |};
              }
            else s)
          app_sources
      in
      let rebuilt = Buildsys.build ws Options.o2 changed in
      Alcotest.(check (list string)) "only the changed module" [ "error_mod" ]
        rebuilt.Buildsys.recompiled;
      (* The rebuilt program must match the interpreter on the new
         sources. *)
      let expected = Interp.run (Pipeline.frontend changed) in
      let o = Pipeline.run rebuilt.Buildsys.build in
      Alcotest.(check int64) "rebuild correct" expected.Interp.ret o.Vm.ret)

let test_buildsys_cmo_mode () =
  with_workspace (fun ws ->
      let db = profile_db () in
      let first = Buildsys.build ~profile:db ws Options.o4_pbo app_sources in
      let expected = reference () in
      let o = Pipeline.run first.Buildsys.build in
      Alcotest.(check int64) "CMO from disk objects" expected.Interp.ret o.Vm.ret;
      (* IL objects are reused across builds; CMO re-runs at link. *)
      let second = Buildsys.build ~profile:db ws Options.o4_pbo app_sources in
      Alcotest.(check int) "IL objects reused" 4
        (List.length second.Buildsys.reused))

let test_buildsys_level_switch_recompiles () =
  with_workspace (fun ws ->
      ignore (Buildsys.build ws Options.o2 app_sources);
      (* Switching to CMO needs IL payloads: everything recompiles. *)
      let cmo = Buildsys.build ws Options.o4 app_sources in
      Alcotest.(check int) "all recompiled for CMO" 4
        (List.length cmo.Buildsys.recompiled))

let test_buildsys_clean () =
  with_workspace (fun ws ->
      ignore (Buildsys.build ws Options.o2 app_sources);
      Buildsys.clean ws;
      let again = Buildsys.build ws Options.o2 app_sources in
      Alcotest.(check int) "clean forces rebuild" 4
        (List.length again.Buildsys.recompiled))

let test_buildsys_reports_frontend_time () =
  (* A cold build times its frontend loop on both the code-object and
     the IL (+O4) paths; timing it changes no artifact byte. *)
  List.iter
    (fun options ->
      let label = Options.to_string options in
      (* A one-shot build's objects carry no source digest. *)
      let encode objs =
        List.map
          (fun o -> Cmo_link.Objfile.encode { o with Cmo_link.Objfile.source_digest = "" })
          objs
      in
      let oracle = encode (Pipeline.compile options app_sources).Pipeline.objects in
      with_workspace (fun ws ->
          let cold = Buildsys.build ws options app_sources in
          Alcotest.(check int) (label ^ " all recompiled") 4
            (List.length cold.Buildsys.recompiled);
          let report = cold.Buildsys.build.Pipeline.report in
          Alcotest.(check bool) (label ^ " frontend wall > 0") true
            (report.Pipeline.frontend_wall_seconds > 0.0);
          Alcotest.(check (list string)) (label ^ " objects match one-shot") oracle
            (encode cold.Buildsys.build.Pipeline.objects)))
    [ Options.o2; Options.o4 ]

(* ---------- bug isolation ---------- *)

let test_isolate_modules_synthetic () =
  (* The "bug" appears exactly when modules b and d are both in the
     CMO set — the paper's several-modules-needed case. *)
  let compile ~cmo_modules = cmo_modules in
  let check set =
    if List.mem "b" set && List.mem "d" set then Isolate.Bad "boom"
    else Isolate.Good
  in
  match
    Isolate.isolate_modules ~compile ~check ~modules:[ "a"; "b"; "c"; "d"; "e" ]
  with
  | Some (reduced, "boom") ->
    Alcotest.(check (list string)) "minimal pair found" [ "b"; "d" ]
      (List.sort compare reduced)
  | Some _ -> Alcotest.fail "wrong evidence"
  | None -> Alcotest.fail "failure not reproduced"

let test_isolate_modules_good_program () =
  let compile ~cmo_modules = cmo_modules in
  let check _ = Isolate.Good in
  Alcotest.(check bool) "no failure, no isolation" true
    (Isolate.isolate_modules ~compile ~check ~modules:[ "a"; "b" ] = None)

let test_isolate_operation_limit_synthetic () =
  (* Operation 7 is the culprit: builds with limit >= 7 fail. *)
  let compile ~limit = limit in
  let check limit = if limit >= 7 then Isolate.Bad limit else Isolate.Good in
  match Isolate.isolate_operation_limit ~compile ~check ~max_limit:1000 with
  | Some (7, _) -> ()
  | Some (n, _) -> Alcotest.failf "found %d instead of 7" n
  | None -> Alcotest.fail "not found"

let test_isolate_operation_limit_never_fails () =
  let compile ~limit = limit in
  let check _ = Isolate.Good in
  Alcotest.(check bool) "no bug, no blame" true
    (Isolate.isolate_operation_limit ~compile ~check ~max_limit:100 = None)

let test_isolate_with_real_pipeline () =
  (* Integration: binary search over the real inline operation limit.
     There is no actual miscompile, so define "failure" as "the image
     has fewer dynamic calls than the uninlined build" — monotone in
     the limit, and exercises the full compile-at-limit plumbing. *)
  let db = profile_db () in
  let baseline_calls =
    let build =
      Pipeline.compile ~profile:db
        { Options.o4_pbo with Options.inline_limit = Some 0 }
        app_sources
    in
    (Pipeline.run build).Vm.calls
  in
  let compile ~limit =
    let build =
      Pipeline.compile ~profile:db
        { Options.o4_pbo with Options.inline_limit = Some limit }
        app_sources
    in
    (Pipeline.run build).Vm.calls
  in
  let check calls =
    if calls < baseline_calls then Isolate.Bad calls else Isolate.Good
  in
  match Isolate.isolate_operation_limit ~compile ~check ~max_limit:64 with
  | Some (n, _) ->
    Alcotest.(check bool) "first effective inline found" true (n >= 1 && n <= 64)
  | None -> Alcotest.fail "inlining never changed call counts"

let suite =
  [
    ("O1 correct", `Quick, test_o1_correct);
    ("O2 correct", `Quick, test_o2_correct);
    ("O2+P correct", `Quick, test_o2_pbo_correct);
    ("O4 correct", `Quick, test_o4_correct);
    ("O4+P correct", `Quick, test_o4_pbo_correct);
    ("O4+P selective correct", `Quick, test_o4_pbo_selective_correct);
    ("correct on unseen inputs", `Quick, test_levels_correct_on_other_input);
    ("O4+P faster than O2", `Quick, test_o4_pbo_faster_than_o2);
    ("O2 not slower than O1", `Quick, test_o2_faster_than_o1);
    ("O4+P removes calls", `Quick, test_o4_pbo_fewer_calls);
    ("report O4 fields", `Quick, test_report_o4_fields);
    ("report selective fields", `Quick, test_report_selective_fields);
    ("par_speedup edge cases", `Quick, test_par_speedup_edges);
    ("instrumented build behaviour", `Quick, test_instrumented_build_behaviour);
    ("training produces counts", `Quick, test_train_produces_counts);
    ("duplicate module names", `Quick, test_duplicate_module_names_rejected);
    ("parallel codegen bit-identical", `Quick, test_parallel_codegen_bit_identical);
    ("parallel codegen correct", `Quick, test_parallel_codegen_correct);
    ("explicit CMO set correct", `Quick, test_explicit_cmo_set_correct);
    ("explicit CMO set wins", `Quick, test_explicit_cmo_set_overrides_selectivity);
    ("tiered correct", `Quick, test_tiered_correct);
    ("tiered three layers", `Quick, test_tiered_reports_three_layers);
    ("tiered cold path correct", `Quick, test_tiered_cold_code_still_correct);
    ("untiered no cold tier", `Quick, test_untiered_has_no_cold_lines);
    ("buildsys full then null build", `Quick, test_buildsys_full_then_null_build);
    ("buildsys incremental change", `Quick, test_buildsys_incremental_change);
    ("buildsys CMO mode", `Quick, test_buildsys_cmo_mode);
    ("buildsys level switch", `Quick, test_buildsys_level_switch_recompiles);
    ("buildsys clean", `Quick, test_buildsys_clean);
    ("buildsys frontend time", `Quick, test_buildsys_reports_frontend_time);
    ("isolate modules (synthetic)", `Quick, test_isolate_modules_synthetic);
    ("isolate modules (good program)", `Quick, test_isolate_modules_good_program);
    ("isolate operation (synthetic)", `Quick, test_isolate_operation_limit_synthetic);
    ("isolate operation (never fails)", `Quick, test_isolate_operation_limit_never_fails);
    ("isolate via real pipeline", `Quick, test_isolate_with_real_pipeline);
  ]
