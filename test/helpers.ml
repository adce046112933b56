(* Shared helpers for the test suites: MiniC snippets, tiny IL
   builders, and outcome comparison. *)

module Instr = Cmo_il.Instr
module Func = Cmo_il.Func
module Ilmod = Cmo_il.Ilmod
module Interp = Cmo_il.Interp

let compile ?(name = "test") source =
  Cmo_frontend.Frontend.compile_exn ~module_name:name source

let compile_all sources =
  List.map (fun (name, src) -> compile ~name src) sources

let run ?input modules = Interp.run ?input modules

let run_main ?input source = run ?input [ compile source ]

(* A function [name(a, b) = a*2 + b] built directly in IL. *)
let make_linear_func ?(linkage = Func.Exported) name =
  let f = Func.create ~name ~arity:2 ~linkage in
  let t1 = Func.new_reg f in
  let t2 = Func.new_reg f in
  let b =
    Func.add_block f
      [
        Instr.Binop (Instr.Mul, t1, Instr.Reg 0, Instr.Imm 2L);
        Instr.Binop (Instr.Add, t2, Instr.Reg t1, Instr.Reg 1);
      ]
      (Instr.Ret (Some (Instr.Reg t2)))
  in
  f.Func.entry <- b.Func.label;
  f.Func.src_lines <- 3;
  f

let outcome_testable =
  let pp ppf (o : Interp.outcome) =
    Format.fprintf ppf "ret=%Ld output=[%a]" o.Interp.ret
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
         (fun ppf v -> Format.fprintf ppf "%Ld" v))
      o.Interp.output
  in
  let eq (a : Interp.outcome) (b : Interp.outcome) =
    Int64.equal a.Interp.ret b.Interp.ret && a.Interp.output = b.Interp.output
  in
  Alcotest.testable pp eq

(* Check two program variants have identical observable behaviour. *)
let check_same_behaviour ?input msg modules_a modules_b =
  let a = run ?input modules_a in
  let b = run ?input modules_b in
  Alcotest.check outcome_testable msg a b

(* ---------- temp-dir scaffolding ---------- *)

(* Best-effort recursive delete: entries that vanish mid-walk (another
   cleanup, an injected fault) are fine — a failing test must not
   cascade into a cleanup failure. *)
let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter
      (fun entry -> remove_tree (Filename.concat path entry))
      (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* A fresh empty directory for the callback's lifetime. *)
let with_dir ?(prefix = "cmo_test") f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

(* ---------- byte-identity comparison ----------

   The differential suites (parallel, distributed) all reduce to the
   same observation: two builds are "the same" when the image, the
   objects and — when stores are attached — every store file agree
   byte for byte. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Every file of the two store directories, byte for byte: the index
   (entries, offsets, LRU ticks, counters) and the payload log. *)
let same_store_bytes a b =
  let files dir = List.sort compare (Array.to_list (Sys.readdir dir)) in
  files a = files b
  && List.for_all
       (fun f -> read_file (Filename.concat a f) = read_file (Filename.concat b f))
       (files a)

let same_build msg (a : Cmo_driver.Pipeline.build) (b : Cmo_driver.Pipeline.build) =
  let module Pipeline = Cmo_driver.Pipeline in
  let module Image = Cmo_link.Image in
  Alcotest.(check bool) (msg ^ ": image code") true
    (a.Pipeline.image.Image.code = b.Pipeline.image.Image.code);
  Alcotest.(check bool) (msg ^ ": image tables") true
    (a.Pipeline.image.Image.funcs = b.Pipeline.image.Image.funcs
    && a.Pipeline.image.Image.data_init = b.Pipeline.image.Image.data_init
    && a.Pipeline.image.Image.globals = b.Pipeline.image.Image.globals);
  Alcotest.(check bool) (msg ^ ": objects") true
    (a.Pipeline.objects = b.Pipeline.objects)

(* ---------- corruption primitives ----------

   Every fault suite corrupts bytes the same two ways — xor a bit
   mask into one byte, or cut the tail off — so the primitives live
   here and the suites differ only in what they corrupt. *)

let flip_byte s i bits =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bits));
  Bytes.to_string b

let truncated s k = String.sub s 0 (min (max k 0) (String.length s))

(* One corruption event: which file (index/payload — reinterpret
   freely as any two-target choice), truncate or flip, a relative
   position in [0,1], and a non-zero bit mask. *)
let corruption_arbitrary =
  QCheck.make
    ~print:(fun (in_index, truncate_it, where, bits) ->
      Printf.sprintf "{file=%s; kind=%s; where=%f; bits=%x}"
        (if in_index then "index" else "payload")
        (if truncate_it then "truncate" else "flip")
        where bits)
    QCheck.Gen.(quad bool bool (float_bound_inclusive 1.0) (int_range 1 255))

(* ---------- deterministic fuzz seeds ---------- *)

(* Every property-based suite draws its randomness from one seed so a
   CI failure is reproducible from a single number.  The environment
   lookup ([CMO_FUZZ_SEED] wins, then qcheck's own [QCHECK_SEED]) is
   [Options.from_env]'s, shared with the bench fuzz campaign; absent
   both, a fresh random seed.  Whichever it was, a failing property
   prints it with the command to replay (see HACKING.md). *)
let fuzz_seed =
  lazy
    (match (Cmo_driver.Options.from_env ()).Cmo_driver.Options.env_fuzz_seed with
    | Some s -> s
    | None ->
      Random.self_init ();
      Random.int 1_000_000_000)

(* [QCheck_alcotest.to_alcotest] with the shared seed, and the seed
   printed on failure so the exact run can be replayed. *)
let to_alcotest test =
  let seed = Lazy.force fuzz_seed in
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test
  in
  let run () =
    try run ()
    with e ->
      Printf.printf "fuzz seed: %d (replay with CMO_FUZZ_SEED=%d)\n%!" seed seed;
      raise e
  in
  (name, speed, run)

(* Random option records for the wire fuzzers (cmoc-worker jobs and
   cmocd build requests): a preset plus the fields that vary per build
   and travel with it. *)
let gen_options =
  let module Options = Cmo_driver.Options in
  QCheck.Gen.(
    let* base =
      oneofl
        [ Options.o1; Options.o2; Options.o2_pbo; Options.o4; Options.o4_pbo ]
    in
    let* jobs = int_range 1 16 and* dist = bool and* check = bool in
    let+ selectivity = option (float_bound_inclusive 100.0) in
    { base with Options.jobs; dist; check; selectivity })
