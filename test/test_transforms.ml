(* The dense HLO scalar transforms and the one-pass scheduler against
   their reference oracles ([Ref_transforms], the Hashtbl- and
   list-based implementations they replaced).  Each transform runs on
   two copies of the same routine — the new code on one, the oracle
   on the other — and must return the same count and leave
   structurally equal routines: blocks, instructions, terminators,
   entry and counters.  The scheduler runs on two selections of the
   same routine and must leave equal machine code.  Inputs are every
   routine of generated programs of the three benchmark personalities
   and of the differential fuzzer's random-statement programs, at
   every stage [Test_analyses.iter_stages] visits, plus hand-built
   cases. *)

module Instr = Cmo_il.Instr
module Func = Cmo_il.Func
module Isel = Cmo_llo.Isel
module Valnum = Cmo_hlo.Valnum
module Copyprop = Cmo_hlo.Copyprop
module Constprop = Cmo_hlo.Constprop
module Cfg = Cmo_hlo.Cfg
module Sched = Cmo_llo.Sched
module Ref = Ref_transforms

exception Mismatch of string

let mismatch fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt

let same_func (a : Func.t) (b : Func.t) =
  a.Func.entry = b.Func.entry
  && a.Func.next_reg = b.Func.next_reg
  && a.Func.next_label = b.Func.next_label
  && a.Func.next_site = b.Func.next_site
  && List.length a.Func.blocks = List.length b.Func.blocks
  && List.for_all2
       (fun (x : Func.block) (y : Func.block) ->
         x.Func.label = y.Func.label && x.Func.instrs = y.Func.instrs
         && x.Func.term = y.Func.term && Float.equal x.Func.freq y.Func.freq)
       a.Func.blocks b.Func.blocks

let transforms : (string * (Func.t -> int) * (Func.t -> int)) list =
  let of_bool pass f = if pass f then 1 else 0 in
  [
    ("valnum", Valnum.run, Ref.Valnum.run);
    ("copyprop", Copyprop.run, Ref.Copyprop.run);
    ("constprop", Constprop.run, Ref.Constprop.run);
    ("cfg simplify", of_bool Cfg.simplify, of_bool Ref.Cfg.simplify);
    ("cfg remove_unreachable", Cfg.remove_unreachable, Ref.Cfg.remove_unreachable);
    ("cfg thread_jumps", Cfg.thread_jumps, Ref.Cfg.thread_jumps);
    ("cfg merge_straightline", Cfg.merge_straightline, Ref.Cfg.merge_straightline);
  ]

let check_transform f (name, run, oracle) =
  let mine = Func.copy f and theirs = Func.copy f in
  let n = run mine and n' = oracle theirs in
  if n <> n' then mismatch "%s returned %d, oracle %d" name n n';
  if not (same_func mine theirs) then
    mismatch "%s: routine differs from the oracle's\n%s\noracle:\n%s" name
      (Format.asprintf "%a" Func.pp mine)
      (Format.asprintf "%a" Func.pp theirs)

let bodies (vc : Isel.vcode) = List.map (fun (b : Isel.vblock) -> b.Isel.body) vc.Isel.vblocks

let check_sched f =
  let mine = Isel.select ~module_name:"m" f and theirs = Isel.select ~module_name:"m" f in
  let n = Sched.run mine and n' = Ref.Sched.run theirs in
  if n <> n' then mismatch "sched moved %d, oracle %d" n n';
  if bodies mine <> bodies theirs then mismatch "sched: machine code differs from the oracle's"

let check_func ~stage (f : Func.t) =
  try
    List.iter (check_transform f) transforms;
    check_sched f
  with Mismatch what ->
    QCheck.Test.fail_reportf "%s, %s: %s@.%a" stage f.Func.name what Func.pp f

let check_program program =
  Test_analyses.iter_stages program check_func;
  true

(* Ten programs of each source by default; [QCHECK_LONG=1] runs ten
   times as many. *)
let test_personalities =
  QCheck.Test.make ~name:"dense transforms equal the oracles (personalities)" ~count:10
    ~long_factor:10 Test_analyses.program_arbitrary (fun p ->
      check_program (Test_analyses.small_program p))

let test_statement_programs =
  QCheck.Test.make ~name:"dense transforms equal the oracles (statement programs)"
    ~count:10 ~long_factor:10
    (QCheck.make ~print:Fun.id Test_fuzz.gen_stmt_program)
    (fun src -> check_program [ ("fz", src) ])

(* ---------- hand-built cases ---------- *)

let call ?dst ~site callee =
  Instr.Call { Instr.dst; callee; args = []; site; call_count = 0.0 }

(* Two sibling arms under one branch.  The walk visits the ifnot arm
   first: the edge numbers the constant 0 and the arm numbers 7.  The
   ifso arm then numbers a call result — the first value number minted
   after the undo, the slot the constant 0 had — and branches on it.
   A value number whose slots survive the undo makes that branch fold
   to its ifnot arm. *)
let stale_value_numbers () =
  let f = Func.create ~name:"siblings" ~arity:1 ~linkage:Func.Local in
  let r1 = Func.new_reg f and r2 = Func.new_reg f in
  let site = Func.new_site f in
  let one = Func.add_block f [] (Instr.Ret (Some (Instr.Imm 1L))) in
  let two = Func.add_block f [] (Instr.Ret (Some (Instr.Imm 2L))) in
  let const_arm =
    Func.add_block f [ Instr.Move (r1, Instr.Imm 7L) ] (Instr.Ret (Some (Instr.Reg r1)))
  in
  let call_arm =
    Func.add_block f
      [ call ~dst:r2 ~site "h" ]
      (Instr.Br { cond = Instr.Reg r2; ifso = one.Func.label; ifnot = two.Func.label })
  in
  let entry =
    Func.add_block f []
      (Instr.Br
         { cond = Instr.Reg 0; ifso = call_arm.Func.label; ifnot = const_arm.Func.label })
  in
  f.Func.entry <- entry.Func.label;
  (f, call_arm)

let test_stale_value_numbers () =
  let f, call_arm = stale_value_numbers () in
  check_func ~stage:"hand-built" f;
  Alcotest.(check int) "nothing replaced" 0 (Valnum.run f);
  match call_arm.Func.term with
  | Instr.Br _ -> ()
  | Instr.Jmp _ | Instr.Ret _ -> Alcotest.fail "branch on a call result was folded"

let edge_case build () =
  match check_func ~stage:"hand-built" (build ()) with
  | () -> ()
  | exception QCheck.Test.Test_fail (_, msgs) -> Alcotest.fail (String.concat "; " msgs)

let suite =
  [
    Helpers.to_alcotest test_personalities;
    Helpers.to_alcotest test_statement_programs;
    Alcotest.test_case "valnum: no stale value numbers across siblings" `Quick
      test_stale_value_numbers;
  ]
  @ List.map
      (fun (name, build) ->
        Alcotest.test_case ("oracle edge case: " ^ name) `Quick (edge_case build))
      Test_analyses.edge_cases
