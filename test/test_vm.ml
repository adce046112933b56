(* The pre-decoded VM against its reference oracle ([Ref_vm], the
   boxed-register interpreter it replaced).  Random machine images —
   branches, calls and returns, load-use chains (loads into r0
   included), sparse and huge probe ids, and every kind of fault — run
   under five cost models (the default, the three ablations, and one
   whose cache geometry is not a power of two), with per-routine
   attribution on and off, and must give an equal outcome or the same
   [Fault] message in both.  So must the O4 and instrumented images of
   a perfbench-shaped program.  Also here: the object decoder's
   register check and [cmoc link]'s error reporting. *)

module Mach = Cmo_llo.Mach
module Instr = Cmo_il.Instr
module Image = Cmo_link.Image
module Objfile = Cmo_link.Objfile
module Costmodel = Cmo_vm.Costmodel
module Vm = Cmo_vm.Vm
module Pipeline = Cmo_driver.Pipeline
module Options = Cmo_driver.Options

type result = Outcome of Vm.outcome | Fault of string | Raised of string

let result_to_string = function
  | Outcome o ->
    Printf.sprintf
      "ret %Ld, output [%s], %d cycles, %d instrs, icache %d/%d, dcache %d/%d, %d taken, \
       %d calls, probes [%s], funcs [%s]"
      o.Vm.ret
      (String.concat "; " (List.map Int64.to_string o.Vm.output))
      o.Vm.cycles o.Vm.instructions o.Vm.icache_accesses o.Vm.icache_misses
      o.Vm.dcache_accesses o.Vm.dcache_misses o.Vm.taken_branches o.Vm.calls
      (String.concat "; " (List.map (fun (p, c) -> Printf.sprintf "%d:%Ld" p c) o.Vm.probes))
      (String.concat "; " (List.map (fun (f, c) -> Printf.sprintf "%s:%d" f c) o.Vm.func_cycles))
  | Fault m -> "Fault " ^ m
  | Raised e -> "exception " ^ e

(* A cache geometry that is not a power of two anywhere: 6
   instructions per i-cache line, 5 cells per d-cache line, and 125
   and 25 lines. *)
let odd_geometry =
  {
    Costmodel.default with
    Costmodel.icache_bytes = 3000;
    line_bytes = 24;
    dcache_bytes = 1000;
    dcache_line_bytes = 40;
  }

let cost_models =
  [
    ("default", Costmodel.default);
    ("no_icache", Costmodel.no_icache);
    ("no_dcache", Costmodel.no_dcache);
    ("no_stall", Costmodel.no_stall);
    ("odd geometry", odd_geometry);
  ]

type run = { input : int64 array; fuel : int; stack_cells : int }

let run_new r ~costmodel ~attribute image =
  match
    Vm.run ~input:r.input ~fuel:r.fuel ~stack_cells:r.stack_cells ~costmodel ~attribute image
  with
  | o -> Outcome o
  | exception Vm.Fault m -> Fault m
  | exception e -> Raised (Printexc.to_string e)

let run_ref r ~costmodel ~attribute image =
  match
    Ref_vm.run ~input:r.input ~fuel:r.fuel ~stack_cells:r.stack_cells ~costmodel ~attribute
      image
  with
  | o -> Outcome o
  | exception Ref_vm.Fault m -> Fault m
  | exception e -> Raised (Printexc.to_string e)

(* Both VMs under every cost model, attribution on and off; the first
   disagreement as an error message, else the reference's results. *)
let compare_vms r image =
  List.fold_left
    (fun acc (cm_name, costmodel) ->
      List.fold_left
        (fun acc attribute ->
          match acc with
          | Error _ -> acc
          | Ok results ->
            let want = run_ref r ~costmodel ~attribute image in
            let got = run_new r ~costmodel ~attribute image in
            if got = want then Ok (want :: results)
            else
              Error
                (Printf.sprintf "%s, attribute %b:\nnew       %s\nreference %s" cm_name
                   attribute (result_to_string got) (result_to_string want)))
        acc [ false; true ])
    (Ok []) cost_models

(* ---------- random images ---------- *)

let gen_value =
  QCheck.Gen.(
    frequency
      [
        (6, map Int64.of_int (int_range (-4) 40));
        (1, ui64);
        ( 1,
          oneofl
            [ Int64.min_int; Int64.max_int; -1L; 63L; 64L; 65L; 0x7fff_ffffL;
              Int64.of_int max_int; Int64.of_int min_int ] );
      ])

(* Mostly a small pool, so values flow between instructions; r0 and
   the fixed registers (sp, rv, arg0) appear too. *)
let gen_reg =
  QCheck.Gen.(
    frequency
      [
        (8, oneofl [ 0; 3; 4; 8; 9; 10; 11 ]);
        (1, return Mach.reg_sp);
        (1, int_bound (Mach.first_vreg - 1));
      ])

let gen_binop =
  QCheck.Gen.oneofl
    Instr.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Eq; Ne; Lt; Le; Gt; Ge ]

(* Memory operands: sp-relative (the stack is just below sp) or off a
   pool register; now and then far out of bounds. *)
let gen_mem =
  QCheck.Gen.(
    frequency
      [
        (3, pair (return Mach.reg_sp) (int_range (-8) 1));
        (3, pair gen_reg (int_range (-2) 24));
        (1, pair gen_reg (oneofl [ min_int; max_int; 1_000_000; -1_000_000 ]));
      ])

let gen_probe =
  QCheck.Gen.(
    frequency
      [
        (4, int_bound 6);
        (2, map (fun k -> k * 100_003) (int_bound 40));
        (1, oneofl [ max_int; max_int - 1; 1 lsl 40; 1 lsl 61 ]);
      ])

(* One snippet of code; [n] is the image length, so branch and call
   targets land inside it, with the edges (-1 and [n]) now and then. *)
let gen_snippet n =
  let open QCheck.Gen in
  let target = frequency [ (12, int_bound (max 0 (n - 1))); (1, oneofl [ -1; n ]) ] in
  frequency
    [
      (2, map2 (fun d v -> [ Mach.Li (d, v) ]) gen_reg gen_value);
      (1, map2 (fun d s -> [ Mach.Mv (d, s) ]) gen_reg gen_reg);
      ( 3,
        map3 (fun op (d, a) b -> [ Mach.Op (op, d, a, b) ]) gen_binop (pair gen_reg gen_reg)
          gen_reg );
      ( 2,
        map3 (fun op (d, s) v -> [ Mach.Opi (op, d, s, v) ]) gen_binop (pair gen_reg gen_reg)
          gen_value );
      ( 1,
        map3 (fun op d s -> [ Mach.Un (op, d, s) ]) (oneofl [ Instr.Neg; Instr.Not ]) gen_reg
          gen_reg );
      (2, map2 (fun d (b, off) -> [ Mach.Ld (d, b, off) ]) gen_reg gen_mem);
      (* A load and an immediate consumer: the load-use stall, r0 too. *)
      ( 2,
        map3
          (fun d (b, off) (op, x) -> [ Mach.Ld (d, b, off); Mach.Op (op, x, d, Mach.reg_rv) ])
          (frequency [ (1, return Mach.reg_zero); (2, gen_reg) ])
          gen_mem (pair gen_binop gen_reg) );
      (2, map2 (fun v (b, off) -> [ Mach.St (v, b, off) ]) gen_reg gen_mem);
      (1, map (fun t -> [ Mach.B t ]) target);
      (2, map2 (fun r t -> [ Mach.Bz (r, t) ]) gen_reg target);
      (2, map2 (fun r t -> [ Mach.Bnz (r, t) ]) gen_reg target);
      (1, map (fun t -> [ Mach.Call_abs t ]) target);
      (1, return [ Mach.Ret ]);
      (1, oneofl [ [ Mach.Sys Mach.Sys_print ]; [ Mach.Sys Mach.Sys_arg ] ]);
      ( 1,
        map
          (fun k -> [ Mach.Adjsp k ])
          (frequency [ (4, int_range (-3) 3); (1, oneofl [ -100_000; 100_000 ]) ]) );
      (2, map (fun p -> [ Mach.Cnt p ]) gen_probe);
      (1, return [ Mach.Halt ]);
      ( 1,
        oneofl
          [ [ Mach.Lga (8, "some_global") ]; [ Mach.Call_sym "some_routine" ];
            [ Mach.Lga (Mach.reg_zero, "") ] ] );
    ]

(* The image's routines: the code cut into up to three pieces. *)
let gen_funcs n =
  let open QCheck.Gen in
  let* cuts = list_size (int_bound 2) (int_bound n) in
  let cuts = List.sort_uniq compare (List.filter (fun c -> c > 0 && c < n) cuts) in
  let bounds = (0 :: cuts) @ [ n ] in
  let rec pieces i = function
    | a :: (b :: _ as rest) -> (Printf.sprintf "r%d" i, a, b - a) :: pieces (i + 1) rest
    | _ -> []
  in
  return (if n = 0 then [] else pieces 0 bounds)

let gen_image =
  let open QCheck.Gen in
  let* n = int_range 1 48 in
  let* snippets = list_size (int_range 1 (max 1 (n / 2))) (gen_snippet n) in
  let code = Array.of_list (List.concat snippets) in
  let n = Array.length code in
  let* entry = frequency [ (10, return 0); (1, int_range (-1) n) ] in
  let* funcs = gen_funcs n in
  let* data_cells = int_bound 24 in
  let* data_init =
    if data_cells = 0 then return []
    else list_size (int_bound 6) (pair (int_bound (data_cells - 1)) gen_value)
  in
  return { Image.code; entry; funcs; globals = [ ("g", 0, data_cells) ]; data_init; data_cells }

(* A call chain too deep for the return-address stack: a short
   straight-line body, then a call back to the start. *)
let gen_deep_image =
  let open QCheck.Gen in
  let straight =
    frequency
      [
        (1, map2 (fun d v -> Mach.Li (d, v)) (int_range 8 11) gen_value);
        (1, map (fun p -> Mach.Cnt p) gen_probe);
      ]
  in
  let* body = list_size (int_bound 3) straight in
  let code = Array.of_list (body @ [ Mach.Call_abs 0 ]) in
  return
    {
      Image.code;
      entry = 0;
      funcs = [ ("deep", 0, Array.length code) ];
      globals = [];
      data_init = [];
      data_cells = 0;
    }

(* Well-formed programs that show every step: [main] loads the
   register pool, runs a body of snippets (in a counted loop, now and
   then), printing registers as it goes, and calls leaf routines placed
   after it.  Memory operands are masked into the data segment or the
   stack top, so runs mostly finish and their outputs witness the
   arithmetic, the stalls and the caches. *)
type item = Fixed of Mach.instr | Skip of (int -> Mach.instr) * int | Call_leaf of int

let pool = [ 8; 9; 10; 11; 12; Mach.reg_rv ]

let loop_reg = 20

let checksum_reg = 13

let gen_structured_image =
  let open QCheck.Gen in
  let dst = oneofl pool and src = oneofl (Mach.reg_zero :: pool) in
  (* Source pairs repeat a register a third of the time, so compares
     see equal operands. *)
  let srcs = frequency [ (2, pair src src); (1, map (fun r -> (r, r)) src) ] in
  let masked_addr a = Fixed (Mach.Opi (Instr.And, Mach.reg_scratch1, a, 15L)) in
  (* Fold [d] into the checksum, so every value written shows. *)
  let observed d items =
    items
    @ [ Fixed (Mach.Op (Instr.Xor, checksum_reg, checksum_reg, d));
        Fixed (Mach.Opi (Instr.Mul, checksum_reg, checksum_reg, 31L)) ]
  in
  let* leaves = int_bound 2 in
  let snippet =
    frequency
      [
        (2, map2 (fun d v -> observed d [ Fixed (Mach.Li (d, v)) ]) dst gen_value);
        (1, map2 (fun d a -> observed d [ Fixed (Mach.Mv (d, a)) ]) dst src);
        ( 5,
          map3
            (fun op d (a, b) -> observed d [ Fixed (Mach.Op (op, d, a, b)) ])
            gen_binop dst srcs );
        ( 3,
          map3
            (fun op (d, a) v -> observed d [ Fixed (Mach.Opi (op, d, a, v)) ])
            gen_binop (pair dst src) gen_value );
        ( 1,
          map3
            (fun op d a -> observed d [ Fixed (Mach.Un (op, d, a)) ])
            (oneofl [ Instr.Neg; Instr.Not ]) dst src );
        (* Loads and their consumers, r0 included as the destination. *)
        ( 3,
          map3
            (fun (d, a) consume (op, x) ->
              observed d
                ([ masked_addr a; Fixed (Mach.Ld (d, Mach.reg_scratch1, 0)) ]
                @ if consume then observed x [ Fixed (Mach.Op (op, x, d, Mach.reg_rv)) ] else []))
            (pair (oneofl (Mach.reg_zero :: pool)) src)
            bool (pair gen_binop dst) );
        ( 1,
          map2
            (fun d k -> observed d [ Fixed (Mach.Ld (d, Mach.reg_sp, -k)) ])
            (oneofl (Mach.reg_zero :: pool))
            (int_range 1 8) );
        ( 2,
          map2
            (fun v a -> [ masked_addr a; Fixed (Mach.St (v, Mach.reg_scratch1, 0)) ])
            src src );
        (1, map2 (fun v k -> [ Fixed (Mach.St (v, Mach.reg_sp, -k)) ]) src (int_range 1 8));
        ( 2,
          map
            (fun x -> [ Fixed (Mach.Mv (Mach.reg_arg 0, x)); Fixed (Mach.Sys Mach.Sys_print) ])
            src );
        (* [arg] wraps any index, negative ones included. *)
        ( 1,
          map
            (fun x ->
              observed Mach.reg_rv
                [ Fixed (Mach.Mv (Mach.reg_arg 0, x)); Fixed (Mach.Sys Mach.Sys_arg) ])
            src );
        (2, map (fun p -> [ Fixed (Mach.Cnt p) ]) gen_probe);
        ( 2,
          map3
            (fun zero r k ->
              [ Skip ((fun t -> if zero then Mach.Bz (r, t) else Mach.Bnz (r, t)), k) ])
            bool src (int_range 1 6) );
        (1, map (fun k -> [ Skip ((fun t -> Mach.B t), k) ]) (int_range 1 4));
        ( (if leaves > 0 then 2 else 0),
          map (fun l -> [ Call_leaf l ]) (int_bound (max 0 (leaves - 1))) );
      ]
  in
  let body = map List.concat (list_size (int_range 1 14) snippet) in
  let* values = list_repeat (List.length pool) gen_value in
  let* iterations = frequency [ (2, return 0); (1, int_range 1 6) ] in
  let* main_body = body in
  let* leaf_bodies =
    list_repeat leaves
      (map (List.filter (function Call_leaf _ -> false | _ -> true)) body)
  in
  let prologue =
    List.map2 (fun r v -> Fixed (Mach.Li (r, v))) pool values
    @ if iterations > 0 then [ Fixed (Mach.Li (loop_reg, Int64.of_int iterations)) ] else []
  in
  let loop_start = List.length prologue in
  let epilogue =
    (if iterations > 0 then
       [ Fixed (Mach.Opi (Instr.Sub, loop_reg, loop_reg, 1L));
         Fixed (Mach.Bnz (loop_reg, loop_start)) ]
     else [])
    @ [ Fixed (Mach.Mv (Mach.reg_arg 0, checksum_reg)); Fixed (Mach.Sys Mach.Sys_print);
        Fixed Mach.Halt ]
  in
  let routines =
    ("main", prologue @ main_body @ epilogue)
    :: List.mapi (fun i b -> (Printf.sprintf "leaf%d" i, b @ [ Fixed Mach.Ret ])) leaf_bodies
  in
  let starts =
    List.rev
      (snd
         (List.fold_left
            (fun (at, acc) (_, items) -> (at + List.length items, at :: acc))
            (0, []) routines))
  in
  (* A skip jumps forward within its own routine, at most to its last
     instruction. *)
  let code =
    List.concat
      (List.map2
         (fun start (_, items) ->
           let last = start + List.length items - 1 in
           List.mapi
             (fun i -> function
               | Fixed instr -> instr
               | Skip (branch, k) -> branch (min last (start + i + 1 + k))
               | Call_leaf l -> Mach.Call_abs (List.nth starts (l + 1)))
             items)
         starts routines)
  in
  let funcs = List.map2 (fun start (name, items) -> (name, start, List.length items)) starts routines in
  let* data_init = list_size (int_bound 8) (pair (int_bound 15) gen_value) in
  return
    {
      Image.code = Array.of_list code;
      entry = 0;
      funcs;
      globals = [ ("g", 0, 16) ];
      data_init;
      data_cells = 16;
    }

type shape = Random | Structured | Deep

let gen_run shape =
  let open QCheck.Gen in
  let* input = array_size (int_bound 3) gen_value in
  let* fuel =
    match shape with
    | Deep -> return 500_000
    | Structured -> return 20_000
    | Random -> frequency [ (3, int_bound 60); (4, return 3_000); (1, return 20_000) ]
  in
  let* stack_cells =
    match shape with
    | Structured -> return 16
    | Random | Deep -> frequency [ (4, int_bound 16); (1, return 65_536) ]
  in
  return { input; fuel; stack_cells }

let gen_case =
  let open QCheck.Gen in
  let* shape = frequency [ (75, return Random); (75, return Structured); (1, return Deep) ] in
  let image =
    match shape with
    | Random -> gen_image
    | Structured -> gen_structured_image
    | Deep -> gen_deep_image
  in
  pair image (gen_run shape)

let print_case (image, r) =
  Format.asprintf "@[<v>entry %d, data %d cells, init [%s], funcs [%s]@,%a@,input [%s], fuel %d, stack %d@]"
    image.Image.entry image.Image.data_cells
    (String.concat "; "
       (List.map (fun (a, v) -> Printf.sprintf "%d=%Ld" a v) image.Image.data_init))
    (String.concat "; "
       (List.map (fun (f, s, l) -> Printf.sprintf "%s@%d+%d" f s l) image.Image.funcs))
    (Format.pp_print_list (fun ppf (i, instr) -> Format.fprintf ppf "%4d: %a" i Mach.pp_instr instr))
    (List.mapi (fun i instr -> (i, instr)) (Array.to_list image.Image.code))
    (String.concat "; " (Array.to_list (Array.map Int64.to_string r.input)))
    r.fuel r.stack_cells

let test_random_images =
  QCheck.Test.make ~name:"vm: random images equal the reference" ~count:200 ~long_factor:10
    (QCheck.make ~print:print_case gen_case) (fun (image, r) ->
      match compare_vms r image with
      | Ok _ -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* The generator reaches what the property is meant to cover.  A fixed
   seed keeps this check deterministic; the property above uses the
   shared fuzz seed. *)
let test_generator_reach () =
  let rand = Random.State.make [| 1 |] in
  let seen = Hashtbl.create 16 in
  let note k = Hashtbl.replace seen k () in
  let prefixes =
    [
      "pc out of code"; "fuel exhausted"; "memory access out of bounds"; "stack overflow";
      "stack underflow"; "call stack overflow"; "unresolved global reference";
      "unresolved call to";
    ]
  in
  for _ = 1 to 1500 do
    let image, r = gen_case rand in
    let classify = function
      | Fault m ->
        List.iter
          (fun p -> if String.starts_with ~prefix:p m then note p)
          prefixes
      | Outcome o ->
        note "finished";
        if o.Vm.calls > 0 then note "calls";
        if o.Vm.taken_branches > 0 then note "taken branches";
        if List.exists (fun (p, _) -> p > 1_000_000) o.Vm.probes then note "huge probe id";
        if o.Vm.dcache_misses > 0 then note "dcache misses"
      | Raised _ -> note "other exception"
    in
    classify (run_ref r ~costmodel:Costmodel.default ~attribute:false image);
    (* A load into r0 that stalls its consumer. *)
    let no_stall = run_ref r ~costmodel:Costmodel.no_stall ~attribute:false image in
    match (run_ref r ~costmodel:Costmodel.default ~attribute:false image, no_stall) with
    | Outcome a, Outcome b when a.Vm.cycles > b.Vm.cycles ->
      note "load-use stall";
      let code = image.Image.code in
      Array.iteri
        (fun i instr ->
          match instr with
          | Mach.Ld (0, _, _) when i + 1 < Array.length code && List.mem 0 (Mach.uses code.(i + 1))
            ->
            note "r0 load chain"
          | _ -> ())
        code
    | _ -> ()
  done;
  List.iter
    (fun k -> Alcotest.(check bool) ("reached: " ^ k) true (Hashtbl.mem seen k))
    (prefixes
    @ [ "finished"; "calls"; "taken branches"; "huge probe id"; "dcache misses"; "load-use stall";
        "r0 load chain" ])

(* ---------- directed faults ---------- *)

let image ?(entry = 0) ?(data_cells = 4) code =
  let code = Array.of_list code in
  {
    Image.code;
    entry;
    funcs = [ ("main", 0, Array.length code) ];
    globals = [ ("g", 0, data_cells) ];
    data_init = [ (1, 7L) ];
    data_cells;
  }

let default_run = { input = [| 5L |]; fuel = 1_000_000; stack_cells = 8 }

(* Each fault, reached on purpose: both VMs must raise it, with the
   same message, under every cost model. *)
let test_fault_catalogue () =
  let cases =
    [
      ("pc out of code", default_run, image ~entry:(-1) [ Mach.Halt ]);
      ("pc out of code", default_run, image [ Mach.Li (8, 1L) ]);
      ("pc out of code", default_run, image [ Mach.B 7; Mach.Halt ]);
      ("fuel exhausted", { default_run with fuel = 50 }, image [ Mach.B 0 ]);
      ("memory access out of bounds", default_run, image [ Mach.Ld (8, 0, 12) ]);
      ("memory access out of bounds", default_run, image [ Mach.St (8, Mach.reg_sp, 0) ]);
      ("memory access out of bounds", default_run, image [ Mach.Li (8, -1L); Mach.Ld (0, 8, 0) ]);
      ("stack overflow", default_run, image [ Mach.Adjsp (-9); Mach.Halt ]);
      ("stack underflow", default_run, image [ Mach.Adjsp 1; Mach.Halt ]);
      ("call stack overflow", default_run, image [ Mach.Cnt 3; Mach.Call_abs 0 ]);
      (* Call 100 001, one past the VM's depth limit, faults on the last
         instruction the fuel allows. *)
      ( "call stack overflow",
        { default_run with fuel = 100_001 },
        image [ Mach.Call_abs 0 ] );
      ("unresolved global reference", default_run, image [ Mach.Lga (8, "x") ]);
      ("unresolved call to", default_run, image [ Mach.Call_sym "f" ]);
    ]
  in
  List.iter
    (fun (prefix, r, image) ->
      match compare_vms r image with
      | Error msg -> Alcotest.fail msg
      | Ok results ->
        List.iter
          (function
            | Fault m when String.starts_with ~prefix m -> ()
            | other -> Alcotest.failf "wanted %s, reference gave %s" prefix (result_to_string other))
          results)
    cases

(* A register outside r0-r31 faults when its instruction executes, not
   before; the reference raised [Invalid_argument] there. *)
let test_bad_register () =
  (match Vm.run (image [ Mach.Li (8, 1L); Mach.Mv (40, 8); Mach.Halt ]) with
  | exception Vm.Fault m -> Alcotest.(check string) "fault" "register r40 out of range at @1" m
  | _ -> Alcotest.fail "no fault");
  (match Vm.run (image [ Mach.Bz (-1, 0) ]) with
  | exception Vm.Fault m -> Alcotest.(check string) "fault" "register r-1 out of range at @0" m
  | _ -> Alcotest.fail "no fault");
  let o = Vm.run (image [ Mach.Li (Mach.reg_rv, 9L); Mach.Halt; Mach.St (99, 0, 0) ]) in
  Alcotest.(check int64) "unexecuted bad register is harmless" 9L o.Vm.ret

(* ---------- perfbench-shaped images ---------- *)

(* The program shape of perfbench's [cold] workload (mcad1 at a
   quarter of its modules) built +O4 +P on a 6 MB machine, and its
   instrumented training build, each run on the training input. *)
let test_perfbench_images () =
  let cfg = Cmo_workload.Genprog.scale (Cmo_workload.Suite.find "mcad1") 0.25 in
  let sources =
    List.map (fun (name, text) -> { Pipeline.name; text }) (Cmo_workload.Genprog.generate cfg)
  in
  let input = Cmo_workload.Genprog.training_input cfg in
  let db = Pipeline.train ~inputs:[ input ] sources in
  let o4 =
    Pipeline.compile ~profile:db { Options.o4_pbo with Options.machine_memory = 6 lsl 20 } sources
  in
  let instrumented = Pipeline.compile Options.instrumented sources in
  let r = { input; fuel = 500_000_000; stack_cells = 65_536 } in
  List.iter
    (fun (what, build) ->
      match compare_vms r build.Pipeline.image with
      | Error msg -> Alcotest.failf "%s image: %s" what msg
      | Ok results ->
        List.iter
          (function
            | Outcome o ->
              Alcotest.(check bool) (what ^ " ran a while") true (o.Vm.instructions > 100_000)
            | other -> Alcotest.failf "%s image: %s" what (result_to_string other))
          results)
    [ ("O4", o4); ("instrumented", instrumented) ];
  match run_new r ~costmodel:Costmodel.default ~attribute:false instrumented.Pipeline.image with
  | Outcome o -> Alcotest.(check bool) "probes counted" true (List.length o.Vm.probes > 50)
  | other -> Alcotest.fail (result_to_string other)

(* ---------- object decoding ---------- *)

let routine code = { Mach.fname = "main"; module_name = "m"; code; src_lines = 1 }

(* A routine payload written byte by byte, as [Mach.encode_func] lays
   it out: name, module, source lines, then [mv r<d>, r3]. *)
let hand_encoded_mv d =
  let module W = Cmo_support.Codec.Writer in
  let w = W.create () in
  W.string w "main";
  W.string w "m";
  W.uvarint w 1;
  W.uvarint w 1;
  W.byte w 1;
  W.uvarint w d;
  W.uvarint w Mach.reg_rv;
  W.contents w

let test_decoder_rejects_virtual_registers () =
  let corrupt what f =
    match f () with
    | exception Cmo_support.Codec.Reader.Corrupt m ->
      Alcotest.(check bool) (what ^ ": " ^ m) true (String.starts_with ~prefix:"bad mach register" m)
    | _ -> Alcotest.failf "%s decoded" what
  in
  let ok = Mach.decode_func (hand_encoded_mv 31) in
  Alcotest.(check bool) "r31 decodes" true (ok.Mach.code = [| Mach.Mv (31, Mach.reg_rv) |]);
  corrupt "hand-encoded r32" (fun () -> Mach.decode_func (hand_encoded_mv Mach.first_vreg));
  corrupt "hand-encoded r1000" (fun () -> Mach.decode_func (hand_encoded_mv 1000));
  List.iter
    (fun (what, instr) ->
      let obj =
        Objfile.of_code ~module_name:"m" ~globals:[] ~source_digest:"" [ routine [| instr; Mach.Ret |] ]
      in
      corrupt what (fun () -> Objfile.decode (Objfile.encode obj)))
    [
      ("ld base", Mach.Ld (8, 40, 0));
      ("st value", Mach.St (33, Mach.reg_sp, 0));
      ("op operand", Mach.Op (Instr.Add, 8, 9, 64));
      ("bnz register", Mach.Bnz (100, 0));
      ("lga destination", Mach.Lga (32, "g"));
    ]

(* ---------- cmoc link ---------- *)

let cmoc () =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) Filename.parent_dir_name)
    (Filename.concat "bin" "cmoc.exe")

(* Exit status and standard error of [cmoc args]. *)
let run_cmoc dir args =
  let err = Filename.concat dir "stderr" in
  let out_fd = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let err_fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let bin = cmoc () in
  let pid = Unix.create_process bin (Array.of_list (bin :: args)) Unix.stdin out_fd err_fd in
  Unix.close out_fd;
  Unix.close err_fd;
  let status =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  (status, In_channel.with_open_bin err In_channel.input_all)

let test_link_reports_errors () =
  Helpers.with_dir @@ fun dir ->
  let path name = Filename.concat dir name in
  let m = Helpers.compile ~name:"f" "global a[4]; func main() { return a[1000000]; }" in
  let codes, _ = Cmo_llo.Llo.compile_module m in
  Objfile.save
    (Objfile.of_code ~module_name:"f" ~globals:m.Cmo_il.Ilmod.globals ~source_digest:"" codes)
    (path "f.o");
  Out_channel.with_open_bin (path "g.o") (fun oc -> output_string oc "garbage");
  Objfile.save
    (Objfile.of_code ~module_name:"v" ~globals:[] ~source_digest:""
       [ routine [| Mach.Mv (Mach.reg_rv, 45); Mach.Ret |] ])
    (path "v.o");
  let expect what args needle =
    let status, err = run_cmoc dir args in
    Alcotest.(check int) (what ^ ": exit status") 1 status;
    if not (Helpers.contains ~sub:needle err) then Alcotest.failf "%s: stderr %S lacks %S" what err needle;
    if Helpers.contains ~sub:"internal error" err then Alcotest.failf "%s: %S" what err
  in
  expect "vm fault" [ "link"; path "f.o"; "--run" ]
    "runtime fault: memory access out of bounds: cell 1000000";
  expect "garbage object" [ "link"; path "g.o" ] "g.o: corrupt object file";
  expect "virtual register" [ "link"; path "v.o"; "--run" ] "bad mach register 45"

let suite =
  [
    Helpers.to_alcotest test_random_images;
    Alcotest.test_case "vm: generator reaches every fault and feature" `Quick test_generator_reach;
    Alcotest.test_case "vm: every fault kind equals the reference" `Quick test_fault_catalogue;
    Alcotest.test_case "vm: a register outside r0-r31 faults when executed" `Quick
      test_bad_register;
    Alcotest.test_case "vm: perfbench-shaped O4 and training images" `Quick test_perfbench_images;
    Alcotest.test_case "mach: decoding rejects registers >= first_vreg" `Quick
      test_decoder_rejects_virtual_registers;
    Alcotest.test_case "cmoc link: faults and corrupt objects are errors, not crashes" `Quick
      test_link_reports_errors;
  ]
