(* The dense LLO back end against its reference oracle ([Ref_llo],
   verbatim copies of the list- and Hashtbl-based [Sched], [Regalloc],
   [Peephole] and [Codegen] it replaced).  Each input routine is
   selected twice and run through both back ends stage by stage; at
   every stage the two must agree exactly: moved counts and bodies
   after scheduling, the live intervals, the allocated bodies and
   terminators with the slot, spill and callee-saved figures, the
   peephole count and bodies, and the emitted [Mach.func_code].
   Inputs are every routine of generated programs of the three
   benchmark personalities and of the differential fuzzer's
   random-statement programs, at every stage
   [Test_analyses.iter_stages] visits (unprofiled, and with block
   frequencies that tie and differ), random spill-heavy machine code,
   and hand-built routines. *)

module Instr = Cmo_il.Instr
module Func = Cmo_il.Func
module Isel = Cmo_llo.Isel
module Mach = Cmo_llo.Mach
module Sched = Cmo_llo.Sched
module Regalloc = Cmo_llo.Regalloc
module Peephole = Cmo_llo.Peephole
module Codegen = Cmo_llo.Codegen
module Ref = Ref_llo

exception Mismatch of string

let mismatch fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt

let pp_term ppf = function
  | Isel.Vjmp l -> Format.fprintf ppf "jmp L%d" l
  | Isel.Vbr (r, a, b) -> Format.fprintf ppf "br r%d, L%d, L%d" r a b
  | Isel.Vret -> Format.pp_print_string ppf "ret"

let pp_vcode ppf (vc : Isel.vcode) =
  Format.fprintf ppf "@[<v>entry L%d, next_vreg %d, outgoing %d" vc.Isel.ventry
    vc.Isel.next_vreg vc.Isel.max_outgoing;
  List.iter
    (fun (b : Isel.vblock) ->
      Format.fprintf ppf "@,L%d (freq %g):" b.Isel.vlabel b.Isel.vfreq;
      List.iter (fun i -> Format.fprintf ppf "@,  %a" Mach.pp_instr i) b.Isel.body;
      Format.fprintf ppf "@,  %a" pp_term b.Isel.vterm)
    vc.Isel.vblocks;
  Format.fprintf ppf "@]"

let same_blocks (a : Isel.vcode) (b : Isel.vcode) =
  List.length a.Isel.vblocks = List.length b.Isel.vblocks
  && List.for_all2
       (fun (x : Isel.vblock) (y : Isel.vblock) ->
         x.Isel.vlabel = y.Isel.vlabel && x.Isel.body = y.Isel.body
         && x.Isel.vterm = y.Isel.vterm)
       a.Isel.vblocks b.Isel.vblocks

let check_blocks stage mine theirs =
  if not (same_blocks mine theirs) then
    mismatch "%s: code differs from the oracle's\n%s\noracle:\n%s" stage
      (Format.asprintf "%a" pp_vcode mine)
      (Format.asprintf "%a" pp_vcode theirs)

let show_regs l = String.concat "," (List.map string_of_int l)

(* Either the emitted code or the message it was refused with. *)
let emitted emit r = match emit r with code -> Ok code | exception Invalid_argument m -> Error m

(* Both back ends over two equal selections, compared after each
   stage.  [schedule] as [Llo]'s option of the same name. *)
let check_vcode ~schedule mine theirs =
  if schedule then begin
    let n = Sched.run mine and n' = Ref.Sched.run theirs in
    if n <> n' then mismatch "sched moved %d, oracle %d" n n';
    check_blocks "sched" mine theirs
  end;
  if Regalloc.intervals mine <> Ref.Regalloc.intervals theirs then
    mismatch "regalloc intervals differ from the oracle's";
  let r = Regalloc.run mine and r' = Ref.Regalloc.run theirs in
  check_blocks "regalloc" mine theirs;
  if r.Regalloc.spill_slots <> r'.Ref.Regalloc.spill_slots then
    mismatch "regalloc: %d spill slots, oracle %d" r.Regalloc.spill_slots
      r'.Ref.Regalloc.spill_slots;
  if r.Regalloc.spilled_vregs <> r'.Ref.Regalloc.spilled_vregs then
    mismatch "regalloc: %d spilled, oracle %d" r.Regalloc.spilled_vregs
      r'.Ref.Regalloc.spilled_vregs;
  if r.Regalloc.used_callee_saved <> r'.Ref.Regalloc.used_callee_saved then
    mismatch "regalloc: callee-saved [%s], oracle [%s]"
      (show_regs r.Regalloc.used_callee_saved)
      (show_regs r'.Ref.Regalloc.used_callee_saved);
  let p = Peephole.run mine and p' = Ref.Peephole.run theirs in
  if p <> p' then mismatch "peephole rewrote %d, oracle %d" p p';
  check_blocks "peephole" mine theirs;
  match (emitted Codegen.emit r, emitted Ref.Codegen.emit r') with
  | Ok c, Ok c' ->
    if c <> c' then
      mismatch "codegen: code differs from the oracle's\n%s\noracle:\n%s"
        (Format.asprintf "%a" Mach.pp_func c)
        (Format.asprintf "%a" Mach.pp_func c')
  | Error m, Error m' -> if m <> m' then mismatch "codegen refused with %S, oracle %S" m m'
  | Ok _, Error m -> mismatch "codegen emitted code, oracle refused: %s" m
  | Error m, Ok _ -> mismatch "codegen refused, oracle emitted: %s" m

let check_selected ~schedule f =
  check_vcode ~schedule (Isel.select ~module_name:"m" f) (Isel.select ~module_name:"m" f)

(* Block frequencies that tie (many blocks share one) and differ, so
   spill weights exercise both the weight order and its tie break. *)
let with_synthetic_freqs (f : Func.t) =
  let f = Func.copy f in
  List.iter
    (fun (b : Func.block) -> b.Func.freq <- float_of_int (b.Func.label mod 3 * 40))
    f.Func.blocks;
  f

let check_func ~stage (f : Func.t) =
  try
    check_selected ~schedule:true f;
    check_selected ~schedule:false f;
    check_selected ~schedule:true (with_synthetic_freqs f)
  with Mismatch what ->
    QCheck.Test.fail_reportf "%s, %s: %s@.%a" stage f.Func.name what Func.pp f

let check_program program =
  Test_analyses.iter_stages program check_func;
  true

(* Ten programs of each source by default; [QCHECK_LONG=1] runs ten
   times as many. *)
let test_personalities =
  QCheck.Test.make ~name:"backend: personality routines equal the reference" ~count:10
    ~long_factor:10 Test_analyses.program_arbitrary (fun p ->
      check_program (Test_analyses.small_program p))

let test_statement_programs =
  QCheck.Test.make ~name:"backend: statement programs equal the reference" ~count:10
    ~long_factor:10
    (QCheck.make ~print:Fun.id Test_fuzz.gen_stmt_program)
    (fun src -> check_program [ ("fz", src) ])

(* ---------- random machine code ---------- *)

(* Virtual code straight from a generator: up to 40 virtual registers
   over a handful of blocks, so live ranges overlap far past the 20
   allocatable registers; self-moves, foldable immediates and
   repeated constants for the peephole; loads, stores and barriers
   for the scheduler; a few physical operands (argument, return,
   stack and allocatable registers), incoming-argument loads, an
   entry block that is not first, and now and then a branch to a
   missing block. *)
let gen_vcode =
  let open QCheck.Gen in
  let* nv = int_range 1 40 and* nblocks = int_range 1 6 in
  let vreg = map (fun k -> Mach.first_vreg + k) (int_bound (nv - 1)) in
  let reg =
    frequency
      [
        (12, vreg);
        (1, oneofl [ Mach.reg_zero; Mach.reg_sp; Mach.reg_rv; Mach.reg_arg 0; 8; 27 ]);
      ]
  in
  let imm = oneofl [ 0L; 1L; 2L; 3L; 8L; -1L; 1024L; Int64.shift_left 1L 62 ] in
  let binop = oneofl [ Instr.Add; Instr.Sub; Instr.Mul; Instr.And; Instr.Or; Instr.Shl; Instr.Lt ] in
  let instr =
    frequency
      [
        (4, map2 (fun d c -> Mach.Li (d, c)) reg imm);
        (3, map2 (fun d s -> Mach.Mv (d, s)) reg reg);
        (2, map (fun d -> Mach.Mv (d, d)) reg);
        (6, map3 (fun op d (a, b) -> Mach.Op (op, d, a, b)) binop reg (pair reg reg));
        (4, map3 (fun op (d, s) c -> Mach.Opi (op, d, s, c)) binop (pair reg reg) imm);
        (1, map2 (fun d s -> Mach.Un (Instr.Neg, d, s)) reg reg);
        (3, map3 (fun d b o -> Mach.Ld (d, b, o)) reg reg (int_bound 3));
        (1, map2 (fun d k -> Mach.Ld (d, Mach.reg_sp, Isel.incoming_base + k)) reg (int_bound 2));
        (3, map3 (fun v b o -> Mach.St (v, b, o)) reg reg (int_bound 3));
        (1, map (fun d -> Mach.Lga (d, "g")) reg);
        (1, oneofl [ Mach.Call_sym "f"; Mach.Sys Mach.Sys_print; Mach.Cnt 3 ]);
      ]
  in
  let label = int_bound (nblocks - 1) in
  let target = frequency [ (30, label); (1, return (nblocks + 5)) ] in
  let term =
    frequency
      [
        (2, map (fun l -> Isel.Vjmp l) target);
        (3, map3 (fun r a b -> Isel.Vbr (r, a, b)) reg target target);
        (2, return Isel.Vret);
      ]
  in
  let block l =
    let* body = list_size (int_bound 25) instr
    and* vterm = term
    and* vfreq = oneofl [ 0.0; 1.0; 2.5; 40.0 ] in
    return { Isel.vlabel = l; body; vterm; vfreq }
  in
  let* blocks = flatten_l (List.init nblocks block)
  and* ventry = frequency [ (3, return 0); (1, label) ]
  and* max_outgoing = int_bound 2 in
  return
    {
      Isel.vname = "rand";
      vmodule = "m";
      arity = 0;
      ventry;
      vblocks = blocks;
      next_vreg = Mach.first_vreg + nv;
      max_outgoing;
      vsrc_lines = 1;
    }

let copy_vcode (vc : Isel.vcode) =
  {
    vc with
    Isel.vblocks =
      List.map (fun (b : Isel.vblock) -> { b with Isel.body = b.Isel.body }) vc.Isel.vblocks;
  }

let test_random_vcode =
  QCheck.Test.make ~name:"backend: random machine code equals the reference" ~count:300
    ~long_factor:10
    (QCheck.make ~print:(Format.asprintf "%a" pp_vcode) gen_vcode)
    (fun vc ->
      List.iter
        (fun schedule ->
          try check_vcode ~schedule (copy_vcode vc) (copy_vcode vc)
          with Mismatch what -> QCheck.Test.fail_reportf "schedule=%b: %s" schedule what)
        [ true; false ];
      true)

(* ---------- hand-built routines ---------- *)

let v k = Mach.first_vreg + k

let vcode ?(entry = 0) ~nv blocks =
  {
    Isel.vname = "hand";
    vmodule = "m";
    arity = 0;
    ventry = entry;
    vblocks =
      List.mapi (fun l (vfreq, body, vterm) -> { Isel.vlabel = l; body; vterm; vfreq }) blocks;
    next_vreg = v nv;
    max_outgoing = 1;
    vsrc_lines = 1;
  }

let add d a b = Mach.Op (Instr.Add, d, a, b)

(* 25 constants, all live at once across a block boundary (which no
   schedule crosses), summed in the next block: five must spill. *)
let wide_pressure () =
  let n = 25 in
  let defs = List.init n (fun k -> Mach.Li (v k, Int64.of_int k)) in
  let sum = List.init (n - 1) (fun k -> add (v n) (if k = 0 then v 0 else v n) (v (k + 1))) in
  vcode ~nv:(n + 1)
    [ (1.0, defs, Isel.Vjmp 1); (1.0, sum @ [ Mach.Mv (Mach.reg_rv, v n) ], Isel.Vret) ]

(* 22 registers of equal weight across a loop of two equal-frequency
   blocks: every spill choice is a weight tie, broken on the
   interval's end. *)
let weight_ties () =
  let n = 22 in
  let defs = List.init n (fun k -> Mach.Li (v k, Int64.of_int (k + 1))) in
  let touch = List.init n (fun k -> add (v k) (v k) (v ((k + 1) mod n))) in
  vcode ~nv:n
    [
      (5.0, defs, Isel.Vjmp 1);
      (5.0, touch, Isel.Vbr (v 0, 2, 1));
      (5.0, List.rev touch @ [ Mach.Mv (Mach.reg_rv, v 3) ], Isel.Vret);
    ]

(* A branch register defined in a cold block, read once, and live
   across 21 registers hot in the loop: it is the cheapest to spill,
   so the branch reloads it through scratch 1. *)
let spilled_branch () =
  let n = 21 in
  let c = v n in
  let defs = List.init n (fun k -> Mach.Li (v k, Int64.of_int k)) in
  let hot = List.init n (fun k -> add (v k) (v k) (v ((k + 3) mod n))) in
  vcode ~nv:(n + 1)
    [
      (0.0, Mach.Li (c, 1L) :: defs, Isel.Vjmp 1);
      (100.0, hot, Isel.Vbr (v 0, 1, 2));
      (100.0, hot, Isel.Vbr (c, 3, 1));
      (1.0, [ Mach.Mv (Mach.reg_rv, v 5) ], Isel.Vret);
    ]

let hand_built =
  [
    ("more than 20 live registers", wide_pressure, fun (r : Regalloc.result) _ -> r.Regalloc.spilled_vregs >= 5);
    ("spill weight ties", weight_ties, fun (r : Regalloc.result) _ -> r.Regalloc.spilled_vregs > 0);
    ( "spilled branch register",
      spilled_branch,
      fun _ (vc : Isel.vcode) ->
        List.exists
          (fun (b : Isel.vblock) ->
            match b.Isel.vterm with
            | Isel.Vbr (r, _, _) -> r = Mach.reg_scratch1
            | Isel.Vjmp _ | Isel.Vret -> false)
          vc.Isel.vblocks );
  ]

let test_hand_built (build, shows) () =
  (try
     check_vcode ~schedule:true (build ()) (build ());
     check_vcode ~schedule:false (build ()) (build ())
   with Mismatch what -> Alcotest.fail what);
  let vc = build () in
  ignore (Sched.run vc);
  let r = Regalloc.run vc in
  Alcotest.(check bool) "the case exercises what it names" true (shows r vc);
  Alcotest.(check (list int)) "every allocatable register is saved" Mach.allocatable
    r.Regalloc.used_callee_saved

let suite =
  [
    Helpers.to_alcotest test_personalities;
    Helpers.to_alcotest test_statement_programs;
    Helpers.to_alcotest test_random_vcode;
  ]
  @ List.map
      (fun (name, build, shows) ->
        Alcotest.test_case ("backend: " ^ name) `Quick (test_hand_built (build, shows)))
      hand_built
