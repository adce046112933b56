(* Edge cases and report/pretty-printer smoke tests that don't fit the
   per-library suites. *)

module Instr = Cmo_il.Instr
module Func = Cmo_il.Func
module Ilmod = Cmo_il.Ilmod
module Interp = Cmo_il.Interp
module Options = Cmo_driver.Options
module Pipeline = Cmo_driver.Pipeline
module Buildsys = Cmo_driver.Buildsys
module Loader = Cmo_naim.Loader
module Memstats = Cmo_naim.Memstats
module Db = Cmo_profile.Db
module Vm = Cmo_vm.Vm

(* ---------- arithmetic edges ---------- *)

let test_min_int_edges () =
  (* Division overflow (min_int / -1) and friends must not raise and
     must agree between the interpreter and the VM. *)
  let src =
    {|
    func main() {
      var m = 0 - 9223372036854775807 - 1;
      print(m / -1);
      print(m % -1);
      print(m * -1);
      print(-m);
      print(m >> 63);
      print(m << 1);
      return 0;
    }
    |}
  in
  let modules = [ Helpers.compile src ] in
  let expected = Interp.run modules in
  let build = Pipeline.compile_modules Options.o2 modules in
  let got = Pipeline.run build in
  Alcotest.(check (list int64)) "interp = vm on min_int edges"
    expected.Interp.output got.Vm.output

let test_shift_amount_masking () =
  let src =
    "func main() { print(1 << 64); print(1 << 65); print(4 >> -1); return 0; }"
  in
  let modules = [ Helpers.compile src ] in
  let expected = Interp.run modules in
  (* 1 << 64 masks to 1 << 0 = 1; 1 << 65 = 2; 4 >> -1 masks to 4 >> 63. *)
  Alcotest.(check (list int64)) "masked shifts" [ 1L; 2L; 0L ]
    expected.Interp.output;
  let got = Pipeline.run (Pipeline.compile_modules Options.o2 modules) in
  Alcotest.(check (list int64)) "vm agrees" expected.Interp.output got.Vm.output

(* ---------- pretty printers / reports ---------- *)

let small_app () =
  [
    { Pipeline.name = "a"; text = "func main() { return work(3) + 1; }" };
    {
      Pipeline.name = "b";
      text =
        {|
        func work(x) {
          var s = 0;
          var i = 0;
          while (i < 200) { s = (s + x * i) & 4095; i = i + 1; }
          return s;
        }
        |};
    };
  ]

let test_options_to_string () =
  Alcotest.(check string) "o2" "+O2" (Options.to_string Options.o2);
  Alcotest.(check string) "o4 pbo" "+O4 +P" (Options.to_string Options.o4_pbo);
  Alcotest.(check string) "instrumented" "+O2 +I"
    (Options.to_string Options.instrumented);
  Alcotest.(check string) "selective" "+O4 +P sel=20.0%"
    (Options.to_string (Options.o4_pbo_selective 20.0));
  Alcotest.(check string) "tiered" "+O4 +P sel=10.0% tiered"
    (Options.to_string (Options.o4_pbo_tiered 10.0))

(* One knob plane: [Options.from_env] reads exactly the [CMO_*]
   variables HACKING's knob table documents — a knob added, renamed or
   removed on one side only fails here.  ([QCHECK_SEED] is the
   documented fallback inside the [CMO_FUZZ_SEED] row.) *)
let test_env_knobs_match_hacking () =
  let read = ref [] in
  ignore
    (Options.from_env
       ~get:(fun name ->
         read := name :: !read;
         None)
       ());
  let knobs =
    List.sort_uniq compare
      (List.filter (fun n -> String.starts_with ~prefix:"CMO_" n) !read)
  in
  (* Under [dune runtest] the copy beside the build tree; under [dune
     exec] from the checkout, the source file. *)
  let hacking =
    List.find Sys.file_exists
      [
        Filename.concat
          (Filename.concat (Filename.dirname Sys.executable_name) Filename.parent_dir_name)
          "HACKING.md";
        "HACKING.md";
      ]
  in
  let rows =
    In_channel.with_open_bin hacking In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.split_on_char '`' line with
           | "| " :: name :: _ when String.starts_with ~prefix:"CMO_" name -> Some name
           | _ -> None)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "from_env reads = HACKING knob rows" rows knobs

let test_pipeline_report_renders () =
  let sources = small_app () in
  let db = Pipeline.train sources in
  let build = Pipeline.compile ~profile:db Options.o4_pbo sources in
  let text = Format.asprintf "%a" Pipeline.pp_report build.Pipeline.report in
  Alcotest.(check bool) "mentions the level" true (Helpers.contains ~sub:"+O4 +P" text);
  Alcotest.(check bool) "mentions memory" true (Helpers.contains ~sub:"memory peak" text);
  Alcotest.(check bool) "mentions inline diagnostics" true
    (Helpers.contains ~sub:"sites not inlined" text)

let test_image_map_renders () =
  let build = Pipeline.compile Options.o2 (small_app ()) in
  let text =
    Format.asprintf "%a" Cmo_link.Image.pp_map build.Pipeline.image
  in
  Alcotest.(check bool) "lists main" true (Helpers.contains ~sub:"main" text);
  Alcotest.(check bool) "lists work" true (Helpers.contains ~sub:"work" text);
  Alcotest.(check bool) "shows entry" true (Helpers.contains ~sub:"entry:" text)

let test_func_and_module_pp_render () =
  let m = Helpers.compile "global g[2] = {7, 8}; func main() { g[0] = g[1]; return g[0]; }" in
  let text = Format.asprintf "%a" Ilmod.pp m in
  Alcotest.(check bool) "module header" true (Helpers.contains ~sub:"module test" text);
  Alcotest.(check bool) "global" true (Helpers.contains ~sub:"global g[2]" text);
  Alcotest.(check bool) "function body" true (Helpers.contains ~sub:"load" text)

let test_mach_pp_renders () =
  let m = Helpers.compile "func main() { return 6 * 7; }" in
  let codes, _ = Cmo_llo.Llo.compile_module m in
  let text =
    Format.asprintf "%a" Cmo_llo.Mach.pp_func (List.hd codes)
  in
  Alcotest.(check bool) "has header" true (Helpers.contains ~sub:"main" text);
  Alcotest.(check bool) "has ret" true (Helpers.contains ~sub:"ret" text)

(* ---------- API misuse is rejected ---------- *)

let test_loader_double_release_rejected () =
  let mem = Memstats.create () in
  let loader = Loader.create Loader.default_config mem in
  let m = Ilmod.create "m" in
  Ilmod.add_func m (Helpers.make_linear_func "f");
  Loader.register_module loader m;
  ignore (Loader.acquire loader "f");
  Loader.release loader "f";
  Alcotest.(check bool) "second release rejected" true
    (try
       Loader.release loader "f";
       false
     with Invalid_argument _ -> true);
  Loader.close loader

let test_loader_removed_func_unknown () =
  let mem = Memstats.create () in
  let loader = Loader.create Loader.default_config mem in
  let m = Ilmod.create "m" in
  Ilmod.add_func m (Helpers.make_linear_func "f");
  Loader.register_module loader m;
  Loader.remove_func loader "f";
  Alcotest.(check bool) "acquire after remove raises" true
    (try
       ignore (Loader.acquire loader "f");
       false
     with Not_found -> true);
  Loader.close loader

let test_db_load_missing_file () =
  Alcotest.(check bool) "missing file raises Sys_error" true
    (try
       ignore (Db.load "/nonexistent/cmo.prof");
       false
     with Sys_error _ -> true)

let test_buildsys_bad_dir_rejected () =
  Alcotest.(check bool) "missing dir rejected" true
    (try
       ignore (Buildsys.create ~dir:"/nonexistent/cmo_ws" ());
       false
     with Invalid_argument _ -> true)

let test_vm_halt_mid_program () =
  (* A linked image whose entry immediately halts: halt reports rv. *)
  let image =
    {
      Cmo_link.Image.code =
        [| Cmo_llo.Mach.Li (Cmo_llo.Mach.reg_rv, 99L); Cmo_llo.Mach.Halt |];
      entry = 0;
      funcs = [ ("main", 0, 2) ];
      globals = [];
      data_init = [];
      data_cells = 0;
    }
  in
  let o = Vm.run image in
  Alcotest.(check int64) "halt returns rv" 99L o.Vm.ret

let test_vm_unresolved_symbol_faults () =
  let image =
    {
      Cmo_link.Image.code = [| Cmo_llo.Mach.Call_sym "ghost" |];
      entry = 0;
      funcs = [ ("main", 0, 1) ];
      globals = [];
      data_init = [];
      data_cells = 0;
    }
  in
  Alcotest.(check bool) "faults on symbolic instr" true
    (try
       ignore (Vm.run image);
       false
     with Vm.Fault _ -> true)

let test_interp_missing_main () =
  let m = Helpers.compile "func helper(x) { return x; }" in
  Alcotest.(check bool) "no main trapped" true
    (try
       ignore (Interp.run [ m ]);
       false
     with Interp.Runtime_error _ -> true)

(* ---------- determinism of whole builds ---------- *)

let test_build_determinism () =
  (* Section 6.2: "the compiler must behave in exactly the same way
     when compiling the same piece of code, using the same profile
     data ... from run to run."  Two independent full builds must
     produce identical images. *)
  let build () =
    let sources = small_app () in
    let db = Pipeline.train sources in
    (Pipeline.compile ~profile:db Options.o4_pbo sources).Pipeline.image
  in
  let a = build () in
  let b = build () in
  Alcotest.(check bool) "identical code arrays" true
    (a.Cmo_link.Image.code = b.Cmo_link.Image.code);
  Alcotest.(check bool) "identical data" true
    (a.Cmo_link.Image.data_init = b.Cmo_link.Image.data_init
    && a.Cmo_link.Image.funcs = b.Cmo_link.Image.funcs)

let suite =
  [
    ("min_int edges agree", `Quick, test_min_int_edges);
    ("shift masking agrees", `Quick, test_shift_amount_masking);
    ("options to_string", `Quick, test_options_to_string);
    ("env knobs match HACKING's table", `Quick, test_env_knobs_match_hacking);
    ("pipeline report renders", `Quick, test_pipeline_report_renders);
    ("image map renders", `Quick, test_image_map_renders);
    ("func/module pp renders", `Quick, test_func_and_module_pp_render);
    ("mach pp renders", `Quick, test_mach_pp_renders);
    ("loader double release", `Quick, test_loader_double_release_rejected);
    ("loader removed func", `Quick, test_loader_removed_func_unknown);
    ("db missing file", `Quick, test_db_load_missing_file);
    ("buildsys bad dir", `Quick, test_buildsys_bad_dir_rejected);
    ("vm halt semantics", `Quick, test_vm_halt_mid_program);
    ("vm unresolved symbol", `Quick, test_vm_unresolved_symbol_faults);
    ("interp missing main", `Quick, test_interp_missing_main);
    ("build determinism", `Quick, test_build_determinism);
  ]
