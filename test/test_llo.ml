(* Tests for the low-level optimizer: block layout, instruction
   selection, register allocation, peephole, and code emission.  Most
   checks are differential: MiniC source is compiled through the real
   LLO, linked, executed on the VM, and compared against the IL
   reference interpreter. *)

module Instr = Cmo_il.Instr
module Func = Cmo_il.Func
module Ilmod = Cmo_il.Ilmod
module Interp = Cmo_il.Interp
module Mach = Cmo_llo.Mach
module Layout = Cmo_llo.Layout
module Isel = Cmo_llo.Isel
module Regalloc = Cmo_llo.Regalloc
module Peephole = Cmo_llo.Peephole
module Codegen = Cmo_llo.Codegen
module Llo = Cmo_llo.Llo
module Objfile = Cmo_link.Objfile
module Linker = Cmo_link.Linker
module Vm = Cmo_vm.Vm
module Db = Cmo_profile.Db
module Train = Cmo_profile.Train
module Correlate = Cmo_profile.Correlate

(* Compile modules through LLO and link them. *)
let link_modules ?(layout = false) modules =
  let objects =
    List.map
      (fun (m : Ilmod.t) ->
        let codes, _ = Llo.compile_module ~layout m in
        Objfile.of_code ~module_name:m.Ilmod.mname ~globals:m.Ilmod.globals
          ~source_digest:"" codes)
      modules
  in
  match Linker.link objects with
  | Ok image -> image
  | Error errs ->
    Alcotest.failf "link failed: %a"
      (Format.pp_print_list Linker.pp_error)
      errs

(* Differential check: VM result equals interpreter result. *)
let check_vm_matches_interp ?(input = [||]) ?(layout = false) sources =
  let modules = Helpers.compile_all sources in
  let expected = Interp.run ~input modules in
  let image = link_modules ~layout modules in
  let actual = Vm.run ~input image in
  Alcotest.(check int64) "same return value" expected.Interp.ret actual.Vm.ret;
  Alcotest.(check (list int64)) "same output" expected.Interp.output
    actual.Vm.output;
  actual

let simple main_body = [ ("m", "func main() { " ^ main_body ^ " }") ]

(* ---------- differential execution ---------- *)

let test_exec_arith () =
  ignore (check_vm_matches_interp (simple "return 2 + 3 * 4 - 1;"))

let test_exec_all_binops () =
  ignore
    (check_vm_matches_interp
       (simple
          {|
          var a = 29; var b = 3;
          print(a + b); print(a - b); print(a * b); print(a / b);
          print(a % b); print(a & b); print(a | b); print(a ^ b);
          print(a << b); print(a >> b);
          print(a == b); print(a != b); print(a < b); print(a <= b);
          print(a > b); print(a >= b);
          print(-a); print(!a); print(!0);
          return 0;
          |}))

let test_exec_div_by_zero () =
  ignore (check_vm_matches_interp (simple "print(7 / 0); print(7 % 0); return 0;"))

let test_exec_negative_div () =
  ignore
    (check_vm_matches_interp
       (simple "print(-7 / 2); print(-7 % 2); print(-8 >> 1); return 0;"))

let test_exec_globals_and_arrays () =
  ignore
    (check_vm_matches_interp
       [
         ( "m",
           {|
           global s;
           global t[10] = {9, 8, 7};
           func main() {
             var i = 0;
             while (i < 10) { t[i] = t[i] + i; i = i + 1; }
             s = t[0] * 100 + t[1] * 10 + t[9];
             print(s);
             return s;
           }
           |} );
       ])

let test_exec_calls () =
  ignore
    (check_vm_matches_interp
       [
         ( "a",
           {|
           func main() {
             var x = add3(1, 2, 3);
             var y = fib(10);
             print(x); print(y);
             return x + y;
           }
           func add3(p, q, r) { return p + q + r; }
           |} );
         ( "b",
           {|
           func fib(n) {
             if (n < 2) { return n; }
             return fib(n - 1) + fib(n - 2);
           }
           |} );
       ])

let test_exec_many_args_stack () =
  (* 6 arguments: two go on the stack. *)
  ignore
    (check_vm_matches_interp
       [
         ( "m",
           {|
           func wide(a, b, c, d, e, f) {
             return a + b * 10 + c * 100 + d * 1000 + e * 10000 + f * 100000;
           }
           func main() { return wide(1, 2, 3, 4, 5, 6); }
           |} );
       ])

let test_exec_input () =
  ignore
    (check_vm_matches_interp ~input:[| 11L; 22L; 33L |]
       (simple "return arg(0) + arg(1) * arg(2) + arg(5);"))

let test_exec_register_pressure () =
  (* More than 20 simultaneously-live values forces spilling; the
     result must be unchanged. *)
  let vars =
    List.init 30 (fun i -> Printf.sprintf "var v%d = arg(%d) + %d;" i i i)
  in
  let sum =
    List.init 30 (fun i -> Printf.sprintf "v%d" i) |> String.concat " + "
  in
  let src =
    Printf.sprintf "func main() { %s print(%s); return %s; }"
      (String.concat " " vars) sum sum
  in
  let input = Array.init 8 (fun i -> Int64.of_int (i * 3)) in
  ignore (check_vm_matches_interp ~input [ ("m", src) ])

let test_exec_deep_calls_and_spills () =
  ignore
    (check_vm_matches_interp
       [
         ( "m",
           {|
           func mix(a, b) {
             var x = a * 3 + b;
             var y = helper(x, a) + helper(b, x);
             var z = x * y - a + b;
             return z + helper(z, y);
           }
           func helper(p, q) { return p * 2 - q; }
           func main() {
             var acc = 0;
             var i = 0;
             while (i < 20) { acc = acc + mix(i, acc % 7); i = i + 1; }
             return acc;
           }
           |} );
       ])

let test_exec_static_functions () =
  ignore
    (check_vm_matches_interp
       [
         ("a", "static func sq(x) { return x * x; } func main() { return sq(7) + other(); }");
         ("b", "static func sq(x) { return x + 1; } func other() { return sq(4); }");
       ])

(* ---------- layout ---------- *)

let profile_annotated_main () =
  let src =
    {|
    func main() {
      var s = 0;
      var i = 0;
      while (i < 1000) {
        if (i % 100 == 0) { s = s + rare(i); } else { s = s + 1; }
        i = i + 1;
      }
      return s;
    }
    func rare(x) { return x * 2; }
    |}
  in
  let m = Helpers.compile src in
  let db = Db.create () in
  let _ = Train.run [ m ] db in
  ignore (Correlate.annotate db [ m ]);
  m

let test_layout_reorders_cold_blocks () =
  let m = profile_annotated_main () in
  let main = Option.get (Ilmod.find_func m "main") in
  let before = List.map (fun (b : Func.block) -> b.Func.label) main.Func.blocks in
  let changed = Layout.run main in
  let after = List.map (fun (b : Func.block) -> b.Func.label) main.Func.blocks in
  Alcotest.(check bool) "changed" true changed;
  Alcotest.(check bool) "same set of blocks" true
    (List.sort compare before = List.sort compare after);
  Alcotest.(check int) "entry still first" main.Func.entry (List.hd after)

let test_layout_preserves_behaviour () =
  let m = profile_annotated_main () in
  let expected = Interp.run [ m ] in
  let main = Option.get (Ilmod.find_func m "main") in
  ignore (Layout.run main);
  let got = Interp.run [ m ] in
  Alcotest.(check int64) "layout is pure reordering" expected.Interp.ret
    got.Interp.ret

let test_layout_no_profile_no_change () =
  let m = Helpers.compile "func main() { if (arg(0)) { return 1; } return 2; }" in
  let main = Option.get (Ilmod.find_func m "main") in
  Alcotest.(check bool) "no profile, no reorder" false (Layout.run main)

let test_layout_reduces_taken_branches () =
  (* With profile-guided layout the hot loop should fall through more
     often than with frontend order. *)
  let run_with layout =
    let m = profile_annotated_main () in
    let image = link_modules ~layout [ m ] in
    Vm.run image
  in
  let plain = run_with false in
  let positioned = run_with true in
  Alcotest.(check int64) "same result" plain.Vm.ret positioned.Vm.ret;
  Alcotest.(check bool)
    (Printf.sprintf "taken branches reduced: %d <= %d"
       positioned.Vm.taken_branches plain.Vm.taken_branches)
    true
    (positioned.Vm.taken_branches <= plain.Vm.taken_branches)

(* ---------- isel / regalloc / codegen units ---------- *)

let test_isel_uses_opi_for_immediates () =
  let m = Helpers.compile "func f(x) { return x + 5; } func main() { return f(1); }" in
  let f = Option.get (Ilmod.find_func m "f") in
  let vc = Isel.select ~module_name:"m" f in
  let has_opi =
    List.exists
      (fun (b : Isel.vblock) ->
        List.exists
          (fun i -> match i with Mach.Opi (Instr.Add, _, _, 5L) -> true | _ -> false)
          b.Isel.body)
      vc.Isel.vblocks
  in
  Alcotest.(check bool) "add immediate selected as Opi" true has_opi

let test_isel_outgoing_args_tracked () =
  let m =
    Helpers.compile
      "func f(a,b,c,d,e,f2) { return a+f2; } func main() { return f(1,2,3,4,5,6); }"
  in
  let main = Option.get (Ilmod.find_func m "main") in
  let vc = Isel.select ~module_name:"m" main in
  Alcotest.(check int) "two stack args" 2 vc.Isel.max_outgoing

let test_regalloc_no_vregs_left () =
  let m = profile_annotated_main () in
  List.iter
    (fun f ->
      let vc = Isel.select ~module_name:"m" f in
      let result = Regalloc.run vc in
      List.iter
        (fun (b : Isel.vblock) ->
          List.iter
            (fun i ->
              List.iter
                (fun r ->
                  Alcotest.(check bool)
                    (Printf.sprintf "r%d is physical" r)
                    true (r < Mach.first_vreg))
                (Mach.defs i @ Mach.uses i))
            b.Isel.body)
        result.Regalloc.vcode.Isel.vblocks)
    m.Ilmod.funcs

let test_regalloc_spills_under_pressure () =
  let vars = List.init 30 (fun i -> Printf.sprintf "var v%d = arg(%d);" i i) in
  let sum = List.init 30 (fun i -> Printf.sprintf "v%d" i) |> String.concat " + " in
  let src = Printf.sprintf "func main() { %s return %s; }" (String.concat " " vars) sum in
  let m = Helpers.compile src in
  let main = Option.get (Ilmod.find_func m "main") in
  let vc = Isel.select ~module_name:"m" main in
  let result = Regalloc.run vc in
  Alcotest.(check bool) "spilled something" true (result.Regalloc.spilled_vregs > 0);
  Alcotest.(check bool) "slots allocated" true (result.Regalloc.spill_slots > 0)

let test_regalloc_weighted_spill_prefers_hot () =
  (* Under register pressure with profile data, the hot loop's working
     registers must stay in registers; the profiled build cannot be
     slower than the unprofiled one on the same pressure-heavy
     program. *)
  let vars = List.init 26 (fun i -> Printf.sprintf "var v%d = arg(%d);" i i) in
  let sum = List.init 26 (fun i -> Printf.sprintf "v%d" i) |> String.concat " + " in
  let src =
    Printf.sprintf
      {|
      func main() {
        %s
        var acc = 0;
        var i = 0;
        while (i < 500) { acc = (acc + i * 3) & 65535; i = i + 1; }
        return acc + ((%s) & 255);
      }
      |}
      (String.concat " " vars) sum
  in
  let input = Array.init 26 (fun i -> Int64.of_int i) in
  let m () = Helpers.compile src in
  (* Unprofiled. *)
  let plain = link_modules [ m () ] in
  let plain_run = Vm.run ~input plain in
  (* Profiled: annotate, then regenerate code (weights flow into the
     allocator through block frequencies). *)
  let profiled_module = m () in
  let db = Db.create () in
  let _ = Train.run ~input [ profiled_module ] db in
  ignore (Correlate.annotate db [ profiled_module ]);
  let prof = link_modules [ profiled_module ] in
  let prof_run = Vm.run ~input prof in
  Alcotest.(check int64) "same result" plain_run.Vm.ret prof_run.Vm.ret;
  Alcotest.(check bool)
    (Printf.sprintf "profiled not slower: %d <= %d" prof_run.Vm.cycles
       plain_run.Vm.cycles)
    true
    (prof_run.Vm.cycles <= plain_run.Vm.cycles)

let test_codegen_frame_only_when_needed () =
  let m = Helpers.compile "func tiny(x) { return x; } func main() { return tiny(1); }" in
  let tiny = Option.get (Ilmod.find_func m "tiny") in
  let code = Llo.compile_func ~module_name:"m" tiny in
  let has_adjsp =
    Array.exists (function Mach.Adjsp _ -> true | _ -> false) code.Mach.code
  in
  Alcotest.(check bool) "leaf needs no frame" false has_adjsp

let test_codegen_fallthrough_elision () =
  let m =
    Helpers.compile "func main() { var a = arg(0); if (a) { a = a + 1; } return a; }"
  in
  let main = Option.get (Ilmod.find_func m "main") in
  let code = Llo.compile_func ~module_name:"m" main in
  (* There must be at most one unconditional B (over the if join);
     naive emission without elision would produce more. *)
  let bs =
    Array.to_list code.Mach.code
    |> List.filter (function Mach.B _ -> true | _ -> false)
  in
  Alcotest.(check bool) "fallthroughs elided" true (List.length bs <= 1)

let test_peephole_strength_reduction () =
  let m = Helpers.compile "func f(x) { return x * 8; } func main() { return f(3); }" in
  let f = Option.get (Ilmod.find_func m "f") in
  let vc = Isel.select ~module_name:"m" f in
  let result = Regalloc.run vc in
  let n = Peephole.run result.Regalloc.vcode in
  Alcotest.(check bool) "rewrote multiply" true (n >= 1);
  let has_shift =
    List.exists
      (fun (b : Isel.vblock) ->
        List.exists
          (fun i ->
            match i with Mach.Opi (Instr.Shl, _, _, 3L) -> true | _ -> false)
          b.Isel.body)
      result.Regalloc.vcode.Isel.vblocks
  in
  Alcotest.(check bool) "shift present" true has_shift

let test_peephole_preserves_semantics () =
  ignore
    (check_vm_matches_interp
       (simple
          "var x = arg(0); print(x * 8); print(x * 7); print(x + 0); print(x * 1); print(x * 0); return 0;")
       ~input:[| 13L |])

let test_peephole_div_not_reduced () =
  (* -7 / 2 = -3 but -7 asr 1 = -4: division must not become a shift. *)
  ignore
    (check_vm_matches_interp ~input:[| -7L |]
       (simple "return arg(0) / 2;"))

let test_mach_codec_roundtrip () =
  let m = profile_annotated_main () in
  let f = Option.get (Ilmod.find_func m "main") in
  let code = Llo.compile_func ~module_name:"m" f in
  let decoded = Mach.decode_func (Mach.encode_func code) in
  Alcotest.(check string) "name" code.Mach.fname decoded.Mach.fname;
  Alcotest.(check int) "same length" (Array.length code.Mach.code)
    (Array.length decoded.Mach.code);
  Alcotest.(check bool) "same instructions" true (code.Mach.code = decoded.Mach.code)

let test_vm_attribution_sums_to_total () =
  let m = profile_annotated_main () in
  let image = link_modules [ m ] in
  let o = Vm.run ~attribute:true image in
  let attributed = List.fold_left (fun acc (_, c) -> acc + c) 0 o.Vm.func_cycles in
  Alcotest.(check int) "every cycle attributed" o.Vm.cycles attributed;
  Alcotest.(check bool) "main is hottest" true
    (match o.Vm.func_cycles with ("main", _) :: _ -> true | _ -> false)

let test_vm_attribution_off_by_default () =
  let m = profile_annotated_main () in
  let image = link_modules [ m ] in
  let o = Vm.run image in
  Alcotest.(check (list (pair string int))) "no attribution" [] o.Vm.func_cycles

let test_vm_dcache_counted () =
  let m =
    Helpers.compile
      {|
      global big[4096];
      func main() {
        var s = 0;
        var i = 0;
        while (i < 4096) { big[i] = i; i = i + 1; }
        i = 0;
        while (i < 4096) { s = (s + big[i]) & 65535; i = i + 1; }
        return s;
      }
      |}
  in
  let image = link_modules [ m ] in
  let o = Vm.run image in
  Alcotest.(check bool) "dcache accessed" true (o.Vm.dcache_accesses > 8000);
  (* 4096 cells / 4 cells per line, touched twice with an intervening
     full sweep of a 4096-cell array through a 4096-cell cache: the
     second sweep cannot all hit. *)
  Alcotest.(check bool) "dcache misses seen" true (o.Vm.dcache_misses >= 1024);
  let o2 = Vm.run ~costmodel:Cmo_vm.Costmodel.no_dcache image in
  Alcotest.(check int64) "same result without dcache" o.Vm.ret o2.Vm.ret;
  Alcotest.(check bool) "dcache penalty priced" true (o2.Vm.cycles < o.Vm.cycles)

let test_vm_dcache_locality_rewarded () =
  (* Sequential sweep vs large-stride sweep over the same array: the
     strided version must miss more. *)
  let prog stride =
    Printf.sprintf
      {|
      global a[8192];
      func main() {
        var s = 0;
        var i = 0;
        while (i < 8192) { s = (s + a[(i * %d) & 8191]) & 65535; i = i + 1; }
        return s;
      }
      |}
      stride
  in
  let run stride =
    let image = link_modules [ Helpers.compile (prog stride) ] in
    Vm.run image
  in
  let seq = run 1 in
  let strided = run 33 in
  Alcotest.(check bool)
    (Printf.sprintf "stride misses more: %d > %d" strided.Vm.dcache_misses
       seq.Vm.dcache_misses)
    true
    (strided.Vm.dcache_misses > seq.Vm.dcache_misses)

(* ---------- scheduler / load-use stalls ---------- *)

let test_vm_load_use_stall_priced () =
  (* [Ld; consumer] stalls; [Ld; filler; consumer] does not. *)
  let base_code tail =
    Array.of_list
      ([ Mach.Li (8, 0L);  (* address 0 *)
         Mach.Ld (9, 8, 0) ]
      @ tail
      @ [ Mach.Mv (Mach.reg_rv, 10); Mach.Halt ])
  in
  let image code =
    {
      Cmo_link.Image.code;
      entry = 0;
      funcs = [ ("main", 0, Array.length code) ];
      globals = [ ("g", 0, 1) ];
      data_init = [ (0, 21L) ];
      data_cells = 1;
    }
  in
  let stalled =
    Vm.run (image (base_code [ Mach.Opi (Instr.Add, 10, 9, 1L); Mach.Li (11, 3L) ]))
  in
  let hidden =
    Vm.run (image (base_code [ Mach.Li (11, 3L); Mach.Opi (Instr.Add, 10, 9, 1L) ]))
  in
  Alcotest.(check int64) "same value" stalled.Vm.ret hidden.Vm.ret;
  Alcotest.(check int)
    "stall costs exactly load_use_stall"
    Cmo_vm.Costmodel.default.Cmo_vm.Costmodel.load_use_stall
    (stalled.Vm.cycles - hidden.Vm.cycles)

let test_sched_fills_load_shadow () =
  (* Independent work must move between a load and its consumer. *)
  let vb =
    {
      Isel.vlabel = 0;
      body =
        [
          Mach.Lga (40, "g");
          Mach.Ld (41, 40, 0);
          Mach.Opi (Instr.Add, 42, 41, 1L);  (* consumer of the load *)
          Mach.Li (43, 9L);  (* independent *)
          Mach.Op (Instr.Mul, 44, 42, 43);
        ];
      vterm = Isel.Vret;
      vfreq = 0.0;
    }
  in
  let vc =
    {
      Isel.vname = "f";
      vmodule = "m";
      arity = 0;
      ventry = 0;
      vblocks = [ vb ];
      next_vreg = 50;
      max_outgoing = 0;
      vsrc_lines = 1;
    }
  in
  let moved = Cmo_llo.Sched.run vc in
  Alcotest.(check bool) "moved something" true (moved > 0);
  (* The consumer must no longer immediately follow the load. *)
  let rec no_adjacent_consumer = function
    | Mach.Ld (d, _, _) :: next :: rest ->
      (not (List.mem d (Mach.uses next))) && no_adjacent_consumer (next :: rest)
    | _ :: rest -> no_adjacent_consumer rest
    | [] -> true
  in
  Alcotest.(check bool) "load shadow filled" true
    (no_adjacent_consumer vb.Isel.body)

let test_sched_respects_dependences () =
  (* Scheduling through the whole backend must preserve semantics on
     a store/load-heavy function. *)
  ignore
    (check_vm_matches_interp
       [
         ( "m",
           {|
           global a[16];
           global b[16];
           func main() {
             var i = 0;
             while (i < 16) {
               a[i] = i * 3;
               b[i] = a[i] + 1;
               a[(i + 1) & 15] = b[i] * 2;
               i = i + 1;
             }
             var s = 0;
             i = 0;
             while (i < 16) { s = (s + a[i] * 5 + b[i]) & 65535; i = i + 1; }
             print(s);
             return s;
           }
           |} );
       ])

let test_sched_barriers_hold_call_order () =
  (* Argument setup and print ordering must survive scheduling. *)
  ignore
    (check_vm_matches_interp
       [
         ( "m",
           {|
           func f(x, y) { print(x); print(y); return x - y; }
           func main() {
             var r = f(1, 2) + f(3, 4);
             print(r);
             return r;
           }
           |} );
       ])

(* ---------- assembler ---------- *)

let test_asm_roundtrip_generated_module () =
  (* Print-then-parse is the identity on real compiled code. *)
  let m =
    Helpers.compile ~name:"asmmod"
      {|
      global table[8] = {4, 0, 15};
      static global secret = 9;
      func work(a, b, c, d, e) {
        var s = secret;
        var i = 0;
        while (i < a) { s = (s + table[i & 7] * b) & 65535; i = i + 1; }
        if (s > c) { print(s); }
        return s + d - e;
      }
      func main() { return work(5, 3, 10, 2, 1); }
      |}
  in
  let globals = m.Ilmod.globals in
  let codes, _ = Llo.compile_module m in
  let text =
    Format.asprintf "%t"
      (fun ppf ->
        Cmo_llo.Asm.print_module ppf ~module_name:"asmmod" ~globals codes)
  in
  let name, globals', codes' = Cmo_llo.Asm.parse_module text in
  Alcotest.(check string) "module name" "asmmod" name;
  Alcotest.(check int) "global count" (List.length globals) (List.length globals');
  List.iter2
    (fun (g : Ilmod.global) (g' : Ilmod.global) ->
      Alcotest.(check string) "gname" g.Ilmod.gname g'.Ilmod.gname;
      Alcotest.(check int) "gsize" g.Ilmod.size g'.Ilmod.size;
      Alcotest.(check bool) "gexport" g.Ilmod.exported g'.Ilmod.exported;
      Alcotest.(check bool) "ginit" true (g.Ilmod.init = g'.Ilmod.init))
    globals globals';
  List.iter2
    (fun (c : Mach.func_code) (c' : Mach.func_code) ->
      Alcotest.(check string) "fname" c.Mach.fname c'.Mach.fname;
      Alcotest.(check int) "src lines" c.Mach.src_lines c'.Mach.src_lines;
      Alcotest.(check bool) "identical code" true (c.Mach.code = c'.Mach.code))
    codes codes'

let test_asm_reassembled_object_links_and_runs () =
  let m = Helpers.compile ~name:"mm" "global g = 5; func main() { g = g * 8 + 2; return g; }" in
  let expected = (Interp.run [ Helpers.compile ~name:"mm" "global g = 5; func main() { g = g * 8 + 2; return g; }" ]).Interp.ret in
  let globals = m.Ilmod.globals in
  let codes, _ = Llo.compile_module m in
  let text =
    Format.asprintf "%t"
      (fun ppf -> Cmo_llo.Asm.print_module ppf ~module_name:"mm" ~globals codes)
  in
  let name, globals', codes' = Cmo_llo.Asm.parse_module text in
  let obj =
    Objfile.of_code ~module_name:name ~globals:globals' ~source_digest:"" codes'
  in
  match Linker.link [ obj ] with
  | Ok image ->
    Alcotest.(check int64) "reassembled runs right" expected (Vm.run image).Vm.ret
  | Error _ -> Alcotest.fail "link failed"

let test_asm_parse_errors () =
  let bad text expect_line =
    try
      ignore (Cmo_llo.Asm.parse_module text);
      Alcotest.failf "accepted %S" text
    with Cmo_llo.Asm.Parse_error (line, _) ->
      Alcotest.(check int) "error line" expect_line line
  in
  bad ".module m
.func f
  fly r1, r2
.end" 3;
  bad ".module m
.func f
  li r99, 5
.end" 3;
  bad ".module m
.func f
  li r1, 5
" 4;
  bad ".func f
.end" 2;
  bad ".module m
.init ghost 0 1
" 2

let test_llo_memory_charged_quadratic () =
  Alcotest.(check bool) "quadratic growth" true
    (Llo.modeled_llo_bytes 2000 > 3 * Llo.modeled_llo_bytes 1000)

(* The VM allows 100 000 active calls; the call that would make one
   more faults.  [main] is entered without a call, so [r n] peaks at
   n + 1 active calls (main's call into r, then n recursive ones).
   The stack is sized so that memory never runs out first. *)
let test_vm_call_depth_boundary () =
  let source =
    "func r(n) { if (n == 0) { return 0; } return r(n - 1) + 1; }\n\
     func main() { return r(arg(0)); }"
  in
  let build =
    Cmo_driver.Pipeline.compile Cmo_driver.Options.o1
      [ { Cmo_driver.Pipeline.name = "depth"; text = source } ]
  in
  let run n =
    Vm.run ~input:[| Int64.of_int n |] ~stack_cells:2_000_000
      build.Cmo_driver.Pipeline.image
  in
  Alcotest.(check int64) "100 000 active calls run" 99_999L (run 99_999).Vm.ret;
  match run 100_000 with
  | _ -> Alcotest.fail "100 001 active calls ran"
  | exception Vm.Fault msg ->
    Alcotest.(check string) "fault at 100 001" "call stack overflow" msg

let suite =
  [
    ("vm call depth boundary", `Quick, test_vm_call_depth_boundary);
    ("exec arithmetic", `Quick, test_exec_arith);
    ("exec all operators", `Quick, test_exec_all_binops);
    ("exec division by zero", `Quick, test_exec_div_by_zero);
    ("exec negative division", `Quick, test_exec_negative_div);
    ("exec globals and arrays", `Quick, test_exec_globals_and_arrays);
    ("exec cross-module calls", `Quick, test_exec_calls);
    ("exec stack arguments", `Quick, test_exec_many_args_stack);
    ("exec program input", `Quick, test_exec_input);
    ("exec register pressure", `Quick, test_exec_register_pressure);
    ("exec calls with spills", `Quick, test_exec_deep_calls_and_spills);
    ("exec static name collisions", `Quick, test_exec_static_functions);
    ("layout reorders blocks", `Quick, test_layout_reorders_cold_blocks);
    ("layout preserves behaviour", `Quick, test_layout_preserves_behaviour);
    ("layout needs profile", `Quick, test_layout_no_profile_no_change);
    ("layout reduces taken branches", `Quick, test_layout_reduces_taken_branches);
    ("isel immediate operands", `Quick, test_isel_uses_opi_for_immediates);
    ("isel outgoing args", `Quick, test_isel_outgoing_args_tracked);
    ("regalloc physical only", `Quick, test_regalloc_no_vregs_left);
    ("regalloc spills", `Quick, test_regalloc_spills_under_pressure);
    ("regalloc weighted spill", `Quick, test_regalloc_weighted_spill_prefers_hot);
    ("codegen leaf frames", `Quick, test_codegen_frame_only_when_needed);
    ("codegen fallthrough elision", `Quick, test_codegen_fallthrough_elision);
    ("peephole strength reduction", `Quick, test_peephole_strength_reduction);
    ("peephole preserves semantics", `Quick, test_peephole_preserves_semantics);
    ("peephole division untouched", `Quick, test_peephole_div_not_reduced);
    ("mach codec roundtrip", `Quick, test_mach_codec_roundtrip);
    ("vm dcache counted", `Quick, test_vm_dcache_counted);
    ("vm dcache locality", `Quick, test_vm_dcache_locality_rewarded);
    ("vm attribution sums", `Quick, test_vm_attribution_sums_to_total);
    ("vm attribution opt-in", `Quick, test_vm_attribution_off_by_default);
    ("vm load-use stall", `Quick, test_vm_load_use_stall_priced);
    ("sched fills load shadow", `Quick, test_sched_fills_load_shadow);
    ("sched respects dependences", `Quick, test_sched_respects_dependences);
    ("sched barriers hold order", `Quick, test_sched_barriers_hold_call_order);
    ("asm roundtrip", `Quick, test_asm_roundtrip_generated_module);
    ("asm reassemble and run", `Quick, test_asm_reassembled_object_links_and_runs);
    ("asm parse errors", `Quick, test_asm_parse_errors);
    ("llo memory model quadratic", `Quick, test_llo_memory_charged_quadratic);
  ]
