module Instr = Cmo_il.Instr
module Codec = Cmo_support.Codec
module W = Codec.Writer
module R = Codec.Reader

type reg = int

let reg_zero = 0
let reg_scratch1 = 1
let reg_sp = 2
let reg_rv = 3

let num_arg_regs = 4

let reg_arg i =
  assert (i >= 0 && i < num_arg_regs);
  4 + i

let reg_scratch2 = 28
let reg_scratch3 = 29

let allocatable = List.init 20 (fun i -> 8 + i)

let first_vreg = 32

type sys = Sys_print | Sys_arg

type instr =
  | Li of reg * int64
  | Mv of reg * reg
  | Op of Instr.binop * reg * reg * reg
  | Opi of Instr.binop * reg * reg * int64
  | Un of Instr.unop * reg * reg
  | Ld of reg * reg * int
  | St of reg * reg * int
  | Lga of reg * string
  | B of int
  | Bz of reg * int
  | Bnz of reg * int
  | Call_sym of string
  | Call_abs of int
  | Sys of sys
  | Ret
  | Adjsp of int
  | Cnt of int
  | Halt

type func_code = {
  fname : string;
  module_name : string;
  code : instr array;
  src_lines : int;
}

let uses_mask = function
  | Li _ | Lga _ | B _ | Call_sym _ | Call_abs _ | Adjsp _ | Cnt _ | Halt -> 0
  | Mv (_, s) | Un (_, _, s) | Opi (_, _, s, _) | Ld (_, s, _) | Bz (s, _) | Bnz (s, _) ->
    1 lsl s
  | Op (_, _, a, b) | St (a, b, _) -> (1 lsl a) lor (1 lsl b)
  | Sys _ -> 1 lsl reg_arg 0
  | Ret -> 1 lsl reg_rv

let iter_defs f = function
  | Li (d, _) | Mv (d, _) | Op (_, d, _, _) | Opi (_, d, _, _) | Un (_, d, _)
  | Ld (d, _, _) | Lga (d, _) -> f d
  | Sys _ -> f reg_rv
  | St _ | B _ | Bz _ | Bnz _ | Call_sym _ | Call_abs _ | Ret | Adjsp _
  | Cnt _ | Halt -> ()

let iter_uses f = function
  | Li _ | Lga _ | B _ | Call_sym _ | Call_abs _ | Adjsp _ | Cnt _ | Halt -> ()
  | Mv (_, s) | Un (_, _, s) | Opi (_, _, s, _) | Ld (_, s, _) | Bz (s, _) | Bnz (s, _) ->
    f s
  | Op (_, _, a, b) | St (a, b, _) -> f a; f b
  | Sys _ -> f (reg_arg 0)
  | Ret -> f reg_rv

let to_list iter i =
  let regs = ref [] in
  iter (fun r -> regs := r :: !regs) i;
  List.rev !regs

let defs = to_list iter_defs

let uses = to_list iter_uses

let retarget f = function
  | B t -> B (f t)
  | Bz (r, t) -> Bz (r, f t)
  | Bnz (r, t) -> Bnz (r, f t)
  | Call_abs t -> Call_abs (f t)
  | ( Li _ | Mv _ | Op _ | Opi _ | Un _ | Ld _ | St _ | Lga _ | Call_sym _
    | Sys _ | Ret | Adjsp _ | Cnt _ | Halt ) as i -> i

let instr_bytes = 4

let sys_name = function Sys_print -> "print" | Sys_arg -> "arg"

let pp_instr ppf = function
  | Li (d, i) -> Format.fprintf ppf "li    r%d, %Ld" d i
  | Mv (d, s) -> Format.fprintf ppf "mv    r%d, r%d" d s
  | Op (op, d, a, b) ->
    Format.fprintf ppf "%-5s r%d, r%d, r%d" (Instr.binop_name op) d a b
  | Opi (op, d, s, i) ->
    Format.fprintf ppf "%-4si r%d, r%d, %Ld" (Instr.binop_name op) d s i
  | Un (Instr.Neg, d, s) -> Format.fprintf ppf "neg   r%d, r%d" d s
  | Un (Instr.Not, d, s) -> Format.fprintf ppf "not   r%d, r%d" d s
  | Ld (d, b, o) -> Format.fprintf ppf "ld    r%d, %d(r%d)" d o b
  | St (v, b, o) -> Format.fprintf ppf "st    r%d, %d(r%d)" v o b
  | Lga (d, s) -> Format.fprintf ppf "lga   r%d, %s" d s
  | B t -> Format.fprintf ppf "b     %d" t
  | Bz (r, t) -> Format.fprintf ppf "bz    r%d, %d" r t
  | Bnz (r, t) -> Format.fprintf ppf "bnz   r%d, %d" r t
  | Call_sym s -> Format.fprintf ppf "call  %s" s
  | Call_abs a -> Format.fprintf ppf "call  @%d" a
  | Sys s -> Format.fprintf ppf "sys   %s" (sys_name s)
  | Ret -> Format.pp_print_string ppf "ret"
  | Adjsp n -> Format.fprintf ppf "adjsp %d" n
  | Cnt p -> Format.fprintf ppf "cnt   %d" p
  | Halt -> Format.pp_print_string ppf "halt"

let pp_func ppf fc =
  Format.fprintf ppf "@[<v># %s (%s)" fc.fname fc.module_name;
  Array.iteri
    (fun i instr -> Format.fprintf ppf "@,%4d: %a" i pp_instr instr)
    fc.code;
  Format.fprintf ppf "@]"

(* --- codec --- *)

let binop_tag = function
  | Instr.Add -> 0 | Instr.Sub -> 1 | Instr.Mul -> 2 | Instr.Div -> 3
  | Instr.Rem -> 4 | Instr.And -> 5 | Instr.Or -> 6 | Instr.Xor -> 7
  | Instr.Shl -> 8 | Instr.Shr -> 9 | Instr.Eq -> 10 | Instr.Ne -> 11
  | Instr.Lt -> 12 | Instr.Le -> 13 | Instr.Gt -> 14 | Instr.Ge -> 15

let binop_of_tag = function
  | 0 -> Instr.Add | 1 -> Instr.Sub | 2 -> Instr.Mul | 3 -> Instr.Div
  | 4 -> Instr.Rem | 5 -> Instr.And | 6 -> Instr.Or | 7 -> Instr.Xor
  | 8 -> Instr.Shl | 9 -> Instr.Shr | 10 -> Instr.Eq | 11 -> Instr.Ne
  | 12 -> Instr.Lt | 13 -> Instr.Le | 14 -> Instr.Gt | 15 -> Instr.Ge
  | t -> R.corrupt (Printf.sprintf "bad mach binop tag %d" t)

let write_instr w = function
  | Li (d, i) -> W.byte w 0; W.uvarint w d; W.int64 w i
  | Mv (d, s) -> W.byte w 1; W.uvarint w d; W.uvarint w s
  | Op (op, d, a, b) ->
    W.byte w 2; W.byte w (binop_tag op); W.uvarint w d; W.uvarint w a;
    W.uvarint w b
  | Opi (op, d, s, i) ->
    W.byte w 3; W.byte w (binop_tag op); W.uvarint w d; W.uvarint w s;
    W.int64 w i
  | Un (op, d, s) ->
    W.byte w 4;
    W.byte w (match op with Instr.Neg -> 0 | Instr.Not -> 1);
    W.uvarint w d; W.uvarint w s
  | Ld (d, b, o) -> W.byte w 5; W.uvarint w d; W.uvarint w b; W.varint w o
  | St (v, b, o) -> W.byte w 6; W.uvarint w v; W.uvarint w b; W.varint w o
  | Lga (d, s) -> W.byte w 7; W.uvarint w d; W.string w s
  | B t -> W.byte w 8; W.varint w t
  | Bz (r, t) -> W.byte w 9; W.uvarint w r; W.varint w t
  | Bnz (r, t) -> W.byte w 10; W.uvarint w r; W.varint w t
  | Call_sym s -> W.byte w 11; W.string w s
  | Call_abs a -> W.byte w 12; W.varint w a
  | Sys Sys_print -> W.byte w 13
  | Sys Sys_arg -> W.byte w 14
  | Ret -> W.byte w 15
  | Adjsp n -> W.byte w 16; W.varint w n
  | Cnt p -> W.byte w 17; W.uvarint w p
  | Halt -> W.byte w 18

(* Registers in an object are physical: a virtual one (or a value no
   register can have) would name storage the machine lacks. *)
let read_reg r =
  let reg = R.uvarint r in
  if reg < 0 || reg >= first_vreg then
    R.corrupt (Printf.sprintf "bad mach register %d" reg);
  reg

let read_instr r =
  match R.byte r with
  | 0 -> let d = read_reg r in Li (d, R.int64 r)
  | 1 -> let d = read_reg r in Mv (d, read_reg r)
  | 2 ->
    let op = binop_of_tag (R.byte r) in
    let d = read_reg r in
    let a = read_reg r in
    Op (op, d, a, read_reg r)
  | 3 ->
    let op = binop_of_tag (R.byte r) in
    let d = read_reg r in
    let s = read_reg r in
    Opi (op, d, s, R.int64 r)
  | 4 ->
    let op = match R.byte r with
      | 0 -> Instr.Neg
      | 1 -> Instr.Not
      | t -> R.corrupt (Printf.sprintf "bad mach unop tag %d" t)
    in
    let d = read_reg r in
    Un (op, d, read_reg r)
  | 5 -> let d = read_reg r in let b = read_reg r in Ld (d, b, R.varint r)
  | 6 -> let v = read_reg r in let b = read_reg r in St (v, b, R.varint r)
  | 7 -> let d = read_reg r in Lga (d, R.string r)
  | 8 -> B (R.varint r)
  | 9 -> let reg = read_reg r in Bz (reg, R.varint r)
  | 10 -> let reg = read_reg r in Bnz (reg, R.varint r)
  | 11 -> Call_sym (R.string r)
  | 12 -> Call_abs (R.varint r)
  | 13 -> Sys Sys_print
  | 14 -> Sys Sys_arg
  | 15 -> Ret
  | 16 -> Adjsp (R.varint r)
  | 17 -> Cnt (R.uvarint r)
  | 18 -> Halt
  | t -> R.corrupt (Printf.sprintf "bad mach instr tag %d" t)

let encode_func fc =
  let w = W.create () in
  W.string w fc.fname;
  W.string w fc.module_name;
  W.uvarint w fc.src_lines;
  W.array w (write_instr w) fc.code;
  W.contents w

let decode_func bytes =
  let r = R.of_string bytes in
  let fname = R.string r in
  let module_name = R.string r in
  let src_lines = R.uvarint r in
  let code = R.array r read_instr in
  { fname; module_name; code; src_lines }
