(* Randomized differential testing.

   Three layers:
   - random arithmetic programs: expression trees rendered to MiniC,
     compiled through the full backend, executed on the VM, compared
     against the reference interpreter;
   - random whole programs: workload-generator output over random
     seeds, compiled at +O4 +P (the most aggressive configuration) and
     compared against the interpreter;
   - random loader traffic: arbitrary acquire/release/mutate/unload
     sequences against the NAIM loader, checking the accounting and
     the code's integrity afterwards. *)

module Interp = Cmo_il.Interp
module Func = Cmo_il.Func
module Ilmod = Cmo_il.Ilmod
module Options = Cmo_driver.Options
module Pipeline = Cmo_driver.Pipeline
module Genprog = Cmo_workload.Genprog
module Vm = Cmo_vm.Vm
module Loader = Cmo_naim.Loader
module Memstats = Cmo_naim.Memstats

(* ---------- random expressions ---------- *)

(* A QCheck generator of MiniC expression strings over the given
   atoms (variables, global reads, indexed array reads, call forms)
   and bounded constants.  Division and shifts are included
   deliberately: their edge cases (zero, negatives, large shift
   amounts) are where IL, interpreter and VM must agree exactly. *)
let gen_expr_over ?(depth = 4) atoms =
  let open QCheck.Gen in
  let var = oneofl atoms in
  let const = map Int64.to_string (map Int64.of_int (int_range (-100) 100)) in
  let rec expr n =
    if n = 0 then oneof [ var; const ]
    else
      frequency
        [
          (2, var);
          (1, const);
          ( 6,
            let* op =
              oneofl
                [ "+"; "-"; "*"; "/"; "%"; "&"; "|"; "^"; "<<"; ">>";
                  "=="; "!="; "<"; "<="; ">"; ">="; "&&"; "||" ]
            in
            let* l = expr (n - 1) in
            let* r = expr (n - 1) in
            return (Printf.sprintf "(%s %s %s)" l op r) );
          ( 1,
            let* e = expr (n - 1) in
            return (Printf.sprintf "(-%s)" e) );
          ( 1,
            let* e = expr (n - 1) in
            return (Printf.sprintf "(!%s)" e) );
        ]
  in
  expr depth

let gen_expr = gen_expr_over [ "a"; "b"; "c" ]

let arbitrary_expr_program =
  QCheck.make
    ~print:(fun (e, a, b, c) -> Printf.sprintf "%s with a=%Ld b=%Ld c=%Ld" e a b c)
    QCheck.Gen.(
      let* e = gen_expr in
      let* a = map Int64.of_int (int_range (-1000) 1000) in
      let* b = map Int64.of_int (int_range (-1000) 1000) in
      let* c = map Int64.of_int (int_range (-1000) 1000) in
      return (e, a, b, c))

let compile_and_both_run src input =
  let modules = [ Cmo_frontend.Frontend.compile_exn ~module_name:"fz" src ] in
  let expected = Interp.run ~input modules in
  let build = Pipeline.compile_modules Options.o2 modules in
  let actual = Pipeline.run ~input build in
  (expected, actual)

let fuzz_expressions =
  QCheck.Test.make ~name:"random expressions: VM = interpreter" ~count:150
    arbitrary_expr_program (fun (e, a, b, c) ->
      let src =
        Printf.sprintf
          "func main() { var a = arg(0); var b = arg(1); var c = arg(2); return %s; }"
          e
      in
      let expected, actual = compile_and_both_run src [| a; b; c |] in
      Int64.equal expected.Interp.ret actual.Vm.ret)

(* The same expressions must also survive the full optimizer: compare
   +O1 (no scalar optimization) against +O2 (full pipeline) on the VM. *)
let fuzz_expressions_optimized =
  QCheck.Test.make ~name:"random expressions: O2 = O1" ~count:100
    arbitrary_expr_program (fun (e, a, b, c) ->
      let src =
        Printf.sprintf
          "func main() { var a = arg(0); var b = arg(1); var c = arg(2); return %s; }"
          e
      in
      let input = [| a; b; c |] in
      let run options =
        let modules = [ Cmo_frontend.Frontend.compile_exn ~module_name:"fz" src ] in
        (Pipeline.run ~input (Pipeline.compile_modules options modules)).Vm.ret
      in
      Int64.equal (run Options.o1) (run Options.o2))

(* ---------- random statement-level programs ---------- *)

(* Beyond pure expressions: programs with a scalar global, an array
   indexed by masked random expressions, helper-function calls (one of
   them mutating the global), prints, and bounded while/for loops.
   Every loop counts a fresh local down from a masked bound, so the
   generated programs always terminate. *)
let gen_stmt_program =
  let open QCheck.Gen in
  let fresh = ref 0 in
  let atoms =
    [ "a"; "b"; "c"; "g"; "arr[(a & 7)]"; "arr[(b & 7)]";
      "h1(a, b)"; "h2(c)" ]
  in
  let expr = gen_expr_over ~depth:3 atoms in
  let rec stmts depth n =
    if n = 0 then return ""
    else
      let* s = stmt depth in
      let* rest = stmts depth (n - 1) in
      return (s ^ "\n  " ^ rest)
  and stmt depth =
    let leaf =
      [
        ( 4,
          let* lhs = oneofl [ "a"; "b"; "c"; "g" ] in
          let* e = expr in
          return (Printf.sprintf "%s = %s;" lhs e) );
        ( 2,
          let* i = expr in
          let* e = expr in
          return (Printf.sprintf "arr[(%s) & 7] = %s;" i e) );
        ( 1,
          let* e = expr in
          return (Printf.sprintf "print(%s);" e) );
        ( 1,
          let* e = expr in
          return (Printf.sprintf "c = h1(%s, b);" e) );
      ]
    in
    let nested =
      [
        ( 2,
          let* cond = expr in
          let* t = stmts (depth - 1) 2 in
          let* f = stmts (depth - 1) 2 in
          return (Printf.sprintf "if (%s) { %s } else { %s }" cond t f) );
        ( 2,
          let* bound = expr in
          let* body = stmts (depth - 1) 2 in
          incr fresh;
          let i = Printf.sprintf "i%d" !fresh in
          return
            (Printf.sprintf
               "var %s = (%s) & 15; while (%s > 0) { %s = %s - 1; %s }" i
               bound i i i body) );
        ( 1,
          let* bound = expr in
          let* body = stmts (depth - 1) 2 in
          incr fresh;
          let j = Printf.sprintf "j%d" !fresh in
          return
            (Printf.sprintf
               "for (var %s = 0; %s < ((%s) & 7); %s = %s + 1) { %s }" j j
               bound j j body) );
      ]
    in
    frequency (if depth = 0 then leaf else leaf @ nested)
  in
  let* body = stmts 2 6 in
  return
    (Printf.sprintf
       "global g = 3;\n\
        global arr[8] = {1, 2, 3, 4, 5, 6, 7, 8};\n\
        func h1(x, y) { return (x * 3) ^ (y + arr[x & 7]); }\n\
        static func h2(x) { g = g + 1; return x + g; }\n\
        func main() {\n\
       \  var a = arg(0); var b = arg(1); var c = arg(2);\n\
       \  %s\n\
       \  return (a ^ b) + (c ^ g) + arr[(a - b) & 7];\n\
        }\n"
       body)

let arbitrary_stmt_program =
  QCheck.make
    ~print:(fun (src, a, b, c) ->
      Printf.sprintf "%s\nwith a=%Ld b=%Ld c=%Ld" src a b c)
    QCheck.Gen.(
      let* src = gen_stmt_program in
      let* a = map Int64.of_int (int_range (-1000) 1000) in
      let* b = map Int64.of_int (int_range (-1000) 1000) in
      let* c = map Int64.of_int (int_range (-1000) 1000) in
      return (src, a, b, c))

(* The statement-level programs run through the most aggressive
   single-module configuration and must match the interpreter on both
   the return value and everything printed. *)
let fuzz_statement_programs =
  QCheck.Test.make ~name:"random statement programs: O2 = interpreter"
    ~count:80 arbitrary_stmt_program (fun (src, a, b, c) ->
      let input = [| a; b; c |] in
      let modules = [ Cmo_frontend.Frontend.compile_exn ~module_name:"fz" src ] in
      let expected = Interp.run ~input modules in
      let build = Pipeline.compile_modules Options.o2 modules in
      let actual = Pipeline.run ~input build in
      Int64.equal expected.Interp.ret actual.Vm.ret
      && expected.Interp.output = actual.Vm.output)

(* ---------- random whole programs ---------- *)

let config_of_seed seed = Genprog.fuzz_config ~name:"fuzz" seed

let fuzz_whole_programs =
  QCheck.Test.make ~name:"random programs: O4+P behaves like the interpreter"
    ~count:12
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 10_000))
    (fun seed ->
      let cfg = config_of_seed seed in
      let sources =
        List.map
          (fun (name, text) -> { Pipeline.name; text })
          (Genprog.generate cfg)
      in
      let input = Genprog.reference_input cfg in
      let expected = Interp.run ~input (Pipeline.frontend sources) in
      let db = Pipeline.train ~inputs:[ Genprog.training_input cfg ] sources in
      let build = Pipeline.compile ~profile:db Options.o4_pbo sources in
      let actual = Pipeline.run ~input build in
      Int64.equal expected.Interp.ret actual.Vm.ret
      && expected.Interp.output = actual.Vm.output)

let fuzz_whole_programs_tiered =
  QCheck.Test.make ~name:"random programs: tiered selective = interpreter"
    ~count:8
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 10_000))
    (fun seed ->
      let cfg = config_of_seed seed in
      let sources =
        List.map
          (fun (name, text) -> { Pipeline.name; text })
          (Genprog.generate cfg)
      in
      let input = Genprog.reference_input cfg in
      let expected = Interp.run ~input (Pipeline.frontend sources) in
      let db = Pipeline.train ~inputs:[ Genprog.training_input cfg ] sources in
      let build =
        Pipeline.compile ~profile:db
          (Options.o4_pbo_tiered (float_of_int (5 + (seed mod 30))))
          sources
      in
      let actual = Pipeline.run ~input build in
      Int64.equal expected.Interp.ret actual.Vm.ret
      && expected.Interp.output = actual.Vm.output)

(* ---------- per-pass differential on realistic modules ---------- *)

(* Apply one scalar pass in isolation to every function of a
   generated program and require unchanged behaviour — pinpointing a
   faulty pass directly, where the whole-pipeline fuzz would only say
   "something broke". *)
let passes : (string * (Cmo_il.Func.t -> int)) list =
  [
    ("constprop", Cmo_hlo.Constprop.run);
    ("copyprop", Cmo_hlo.Copyprop.run);
    ("valnum", Cmo_hlo.Valnum.run);
    ("dce", Cmo_hlo.Dce.run);
    ("licm", Cmo_hlo.Licm.run);
    ("unroll", fun f -> Cmo_hlo.Unroll.run f);
    ("cfg", fun f -> if Cmo_hlo.Cfg.simplify f then 1 else 0);
    ("layout", fun f -> if Cmo_llo.Layout.run f then 1 else 0);
  ]

let fuzz_single_pass =
  QCheck.Test.make ~name:"random programs: each pass alone preserves behaviour"
    ~count:16
    (QCheck.make
       ~print:(fun (seed, p) -> Printf.sprintf "seed %d, pass %s" seed (fst (List.nth passes p)))
       QCheck.Gen.(
         let* seed = int_range 1 10_000 in
         let* p = int_range 0 (List.length passes - 1) in
         return (seed, p)))
    (fun (seed, p) ->
      let pass_name, pass = List.nth passes p in
      ignore pass_name;
      let cfg = config_of_seed seed in
      let sources =
        List.map
          (fun (name, text) -> { Pipeline.name; text })
          (Genprog.generate cfg)
      in
      let input = Genprog.reference_input cfg in
      let baseline = Pipeline.frontend sources in
      let transformed = Pipeline.frontend sources in
      (* Annotate with a profile so layout has frequencies to chew on. *)
      let db = Pipeline.train ~inputs:[ Genprog.training_input cfg ] sources in
      ignore (Cmo_profile.Correlate.annotate db transformed);
      List.iter
        (fun (m : Ilmod.t) ->
          List.iter (fun f -> ignore (pass f)) m.Ilmod.funcs)
        transformed;
      let expected = Interp.run ~input baseline in
      let got = Interp.run ~input transformed in
      Int64.equal expected.Interp.ret got.Interp.ret
      && expected.Interp.output = got.Interp.output
      && Cmo_il.Verify.check_program transformed = [])

(* ---------- random loader traffic ---------- *)

type loader_op =
  | Acquire of int
  | Release
  | Touch of int  (* acquire and release, no mutation: retained reuse *)
  | Mutate  (* nested acquire, grow, update, release *)
  | Grow_pinned  (* grow and update the innermost held routine *)
  | Grow_released of int  (* acquire, release, then grow and update it *)
  | Add_func of int
  | Remove_func of int
  | Unload_all

(* One of the four forced levels, or dynamic thresholds over a machine
   of the given modeled size. *)
type loader_setup = Forced of Loader.level | Dynamic of int

let level_name = function
  | Loader.Off -> "off"
  | Loader.Ir_compaction -> "ir"
  | Loader.St_compaction -> "st"
  | Loader.Offloading -> "offload"

let arbitrary_traffic =
  let open QCheck.Gen in
  let setup =
    oneof
      [
        map (fun l -> Forced l)
          (oneofl
             Loader.[ Off; Ir_compaction; St_compaction; Offloading ]);
        map (fun bytes -> Dynamic bytes) (int_range 2_000 40_000);
      ]
  in
  let op =
    frequency
      [
        (5, map (fun i -> Acquire i) (int_range 0 15));
        (4, return Release);
        (3, map (fun i -> Touch i) (int_range 0 15));
        (2, return Mutate);
        (1, return Grow_pinned);
        (1, map (fun i -> Grow_released i) (int_range 0 15));
        (1, map (fun i -> Add_func i) (int_range 0 5));
        (1, map (fun i -> Remove_func i) (int_range 0 15));
        (1, return Unload_all);
      ]
  in
  QCheck.make
    ~print:(fun (setup, ops) ->
      (match setup with
      | Forced l -> "forced " ^ level_name l
      | Dynamic bytes -> Printf.sprintf "dynamic %d" bytes)
      ^ ": "
      ^ String.concat ";"
          (List.map
             (function
               | Acquire i -> Printf.sprintf "A%d" i
               | Release -> "R"
               | Touch i -> Printf.sprintf "T%d" i
               | Mutate -> "M"
               | Grow_pinned -> "G"
               | Grow_released i -> Printf.sprintf "P%d" i
               | Add_func i -> Printf.sprintf "+%d" i
               | Remove_func i -> Printf.sprintf "-%d" i
               | Unload_all -> "U")
             ops))
    (pair setup (list_size (int_range 5 60) op))

let fuzz_func name i =
  let f = Func.create ~name ~arity:1 ~linkage:Func.Exported in
  let r = Func.new_reg f in
  let b =
    Func.add_block f
      [ Cmo_il.Instr.Binop
          (Cmo_il.Instr.Mul, r, Cmo_il.Instr.Reg 0,
           Cmo_il.Instr.Imm (Int64.of_int (i + 2))) ]
      (Cmo_il.Instr.Ret (Some (Cmo_il.Instr.Reg r)))
  in
  f.Func.entry <- b.Func.label;
  f.Func.src_lines <- 2;
  f

(* A module with [n] distinctive functions to push through the
   loader. *)
let fuzz_module ?(n = 10) mname =
  let m = Ilmod.create mname in
  for i = 0 to n - 1 do
    Ilmod.add_func m (fuzz_func (Printf.sprintf "%s_f%d" mname i) i)
  done;
  m

let grow f =
  let r = Func.new_reg f in
  ignore
    (Func.add_block f
       [ Cmo_il.Instr.Move (r, Cmo_il.Instr.Imm 7L) ]
       (Cmo_il.Instr.Ret None))

(* The [i]th element of [l], wrapping; [None] when [l] is empty. *)
let pick l i = match l with [] -> None | _ -> Some (List.nth l (i mod List.length l))

let fuzz_loader_traffic =
  QCheck.Test.make ~name:"loader: random traffic keeps accounting sound"
    ~count:150 arbitrary_traffic (fun (setup, ops) ->
      let mem = Memstats.create () in
      let config =
        match setup with
        | Forced l ->
          { Loader.default_config with
            Loader.machine_memory = 20_000;
            forced_level = Some l }
        | Dynamic bytes -> { Loader.default_config with Loader.machine_memory = bytes }
      in
      let loader = Loader.create config mem in
      (* Two populated modules and an empty one, so symbol tables go
         idle and busy independently. *)
      Loader.register_module loader (fuzz_module "fz");
      Loader.register_module loader (fuzz_module ~n:3 "fy");
      Loader.register_module loader (fuzz_module ~n:0 "fe");
      Loader.check_index loader;
      let pinned = ref [] in  (* stack of (name, value) we hold *)
      List.iter
        (fun op ->
          (match op with
          | Acquire i ->
            Option.iter
              (fun name -> pinned := (name, Loader.acquire loader name) :: !pinned)
              (pick (Loader.func_names loader) i)
          | Release -> (
            match !pinned with
            | (name, _) :: rest ->
              Loader.release loader name;
              pinned := rest
            | [] -> ())
          | Touch i ->
            Option.iter
              (fun name -> Loader.with_func loader name ignore)
              (pick (Loader.func_names loader) i)
          | Mutate -> (
            match !pinned with
            | (name, _) :: _ ->
              let f = Loader.acquire loader name in
              grow f;
              Loader.update loader f;
              Loader.release loader name
            | [] -> ())
          | Grow_pinned -> (
            match !pinned with
            | (_, f) :: _ ->
              grow f;
              Loader.update loader f
            | [] -> ())
          | Grow_released i ->
            Option.iter
              (fun name ->
                let f = Loader.acquire loader name in
                Loader.release loader name;
                (* Still expanded unless the release evicted it. *)
                grow f;
                try Loader.update loader f with Invalid_argument _ -> ())
              (pick (Loader.func_names loader) i)
          | Add_func i ->
            let name = Printf.sprintf "fz_g%d" i in
            if Loader.arity_of loader name = None then
              Loader.add_func loader
                ~module_name:(if i mod 2 = 0 then "fz" else "fe")
                (fuzz_func name i)
          | Remove_func i ->
            let unpinned =
              List.filter
                (fun n -> not (List.mem_assoc n !pinned))
                (Loader.func_names loader)
            in
            Option.iter (Loader.remove_func loader) (pick unpinned i)
          | Unload_all -> Loader.unload_all loader);
          Loader.check_index loader)
        ops;
      (* Drain pins and unload everything. *)
      List.iter (fun (name, _) -> Loader.release loader name) !pinned;
      let lvl = Loader.level loader in
      Loader.unload_all loader;
      Loader.check_index loader;
      (* Accounting: no expanded IR left unless NAIM is off, nothing
         negative. *)
      let sound =
        (lvl = Loader.Off || Memstats.resident_of mem Memstats.Ir_expanded = 0)
        && Memstats.resident mem >= 0
      in
      (* Integrity: every function still decodes with the right name
         and a sane block count. *)
      let intact =
        List.for_all
          (fun name ->
            Loader.with_func loader name (fun f ->
                f.Func.name = name && List.length f.Func.blocks >= 1))
          (Loader.func_names loader)
      in
      Loader.check_index loader;
      Loader.close loader;
      sound && intact)

(* ---------- structural properties ---------- *)

let fuzz_cluster_permutation =
  QCheck.Test.make ~name:"cluster: any weights produce a permutation" ~count:100
    QCheck.(pair (int_range 1 12) (small_list (pair (pair small_nat small_nat) (float_range 0.0 100.0))))
    (fun (n, raw_weights) ->
      let names = List.init n (fun i -> Printf.sprintf "f%d" i) in
      let weights =
        List.map
          (fun ((a, b), w) ->
            ((Printf.sprintf "f%d" (a mod (n + 2)), Printf.sprintf "f%d" (b mod (n + 2))), w))
          raw_weights
      in
      let order = Cmo_link.Cluster.order ~names ~weights in
      List.sort compare order = List.sort compare names)

let fuzz_selectivity_monotone =
  QCheck.Test.make ~name:"selectivity: larger percent selects a superset"
    ~count:10
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 10_000))
    (fun seed ->
      let cfg = config_of_seed seed in
      let sources =
        List.map
          (fun (name, text) -> { Pipeline.name; text })
          (Genprog.generate cfg)
      in
      let modules = Pipeline.frontend sources in
      let db = Pipeline.train ~inputs:[ Genprog.training_input cfg ] sources in
      ignore (Cmo_profile.Correlate.annotate db modules);
      let subset a b = List.for_all (fun x -> List.mem x b) a in
      let sel p = Cmo_hlo.Selectivity.select ~percent:p modules in
      let s5 = sel 5.0 and s20 = sel 20.0 and s100 = sel 100.0 in
      subset s5.Cmo_hlo.Selectivity.selected_sites
        s20.Cmo_hlo.Selectivity.selected_sites
      && subset s20.Cmo_hlo.Selectivity.selected_sites
           s100.Cmo_hlo.Selectivity.selected_sites
      && subset s5.Cmo_hlo.Selectivity.cmo_modules
           s20.Cmo_hlo.Selectivity.cmo_modules
      && subset s20.Cmo_hlo.Selectivity.cmo_modules
           s100.Cmo_hlo.Selectivity.cmo_modules)

(* ---------- decoder robustness ---------- *)

(* Malformed bytes must raise [Corrupt] (or produce a value), never
   crash, loop, or allocate absurdly.  Exercises the same decoders
   that parse object files and the NAIM repository. *)
let fuzz_decoders_robust =
  QCheck.Test.make ~name:"decoders: garbage in, Corrupt (not crash) out"
    ~count:200
    QCheck.(string_of_size (Gen.int_range 0 300))
    (fun bytes ->
      let safe f =
        match f () with
        | _ -> true
        | exception Cmo_support.Codec.Reader.Corrupt _ -> true
        | exception Invalid_argument _ -> true
      in
      safe (fun () -> Cmo_il.Ilcodec.decode_module bytes)
      && safe (fun () -> Cmo_link.Objfile.decode bytes)
      && safe (fun () -> Cmo_llo.Mach.decode_func bytes))

(* Truncations of VALID encodings are the realistic corruption (torn
   writes); every prefix must be rejected cleanly too. *)
let fuzz_truncated_valid_encoding =
  QCheck.Test.make ~name:"decoders: every truncation of a valid module rejected"
    ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1000))
    (fun cut ->
      let m =
        Cmo_frontend.Frontend.compile_exn ~module_name:"t"
          "global g[4] = {1,2,3,4}; func main() { return g[2]; }"
      in
      let bytes = Cmo_il.Ilcodec.encode_module m in
      let n = String.length bytes in
      let cut = cut mod n in
      let truncated = String.sub bytes 0 cut in
      match Cmo_il.Ilcodec.decode_module truncated with
      | _ -> false  (* a strict prefix can never be a complete module *)
      | exception Cmo_support.Codec.Reader.Corrupt _ -> true
      | exception Invalid_argument _ -> true)

let suite =
  [
    Helpers.to_alcotest fuzz_expressions;
    Helpers.to_alcotest fuzz_expressions_optimized;
    Helpers.to_alcotest fuzz_statement_programs;
    Helpers.to_alcotest fuzz_whole_programs;
    Helpers.to_alcotest fuzz_whole_programs_tiered;
    Helpers.to_alcotest fuzz_single_pass;
    Helpers.to_alcotest fuzz_loader_traffic;
    Helpers.to_alcotest fuzz_cluster_permutation;
    Helpers.to_alcotest fuzz_selectivity_monotone;
    Helpers.to_alcotest fuzz_decoders_robust;
    Helpers.to_alcotest fuzz_truncated_valid_encoding;
  ]
