type reg = int
type label = int

type operand =
  | Reg of reg
  | Imm of int64

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge

type unop = Neg | Not

type addr = { base : string; index : operand }

type site = int

type instr =
  | Move of reg * operand
  | Unop of unop * reg * operand
  | Binop of binop * reg * operand * operand
  | Load of reg * addr
  | Store of addr * operand
  | Call of call
  | Probe of int

and call = {
  dst : reg option;
  callee : string;
  args : operand list;
  site : site;
  mutable call_count : float;
}

type terminator =
  | Ret of operand option
  | Jmp of label
  | Br of { cond : operand; ifso : label; ifnot : label }

let map_operands f instr =
  match instr with
  | Move (d, a) -> Move (d, f a)
  | Unop (op, d, a) -> Unop (op, d, f a)
  | Binop (op, d, a, b) -> Binop (op, d, f a, f b)
  | Load (d, { base; index }) -> Load (d, { base; index = f index })
  | Store ({ base; index }, v) -> Store ({ base; index = f index }, f v)
  | Call c -> Call { c with args = List.map f c.args }
  | Probe _ -> instr

let map_term_operands f term =
  match term with
  | Ret (Some a) -> Ret (Some (f a))
  | Ret None -> term
  | Jmp _ -> term
  | Br { cond; ifso; ifnot } -> Br { cond = f cond; ifso; ifnot }

let def = function
  | Move (d, _) | Unop (_, d, _) | Binop (_, d, _, _) | Load (d, _) -> Some d
  | Call { dst; _ } -> dst
  | Store _ | Probe _ -> None

let operand_reg = function Reg r -> [ r ] | Imm _ -> []

let uses = function
  | Move (_, a) | Unop (_, _, a) -> operand_reg a
  | Binop (_, _, a, b) -> operand_reg a @ operand_reg b
  | Load (_, { index; _ }) -> operand_reg index
  | Store ({ index; _ }, v) -> operand_reg index @ operand_reg v
  | Call { args; _ } -> List.concat_map operand_reg args
  | Probe _ -> []

let term_uses = function
  | Ret (Some a) -> operand_reg a
  | Ret None | Jmp _ -> []
  | Br { cond; _ } -> operand_reg cond

let is_pure = function
  | Move _ | Unop _ | Binop _ -> true
  | Load _ | Store _ | Call _ | Probe _ -> false

let targets = function
  | Ret _ -> []
  | Jmp l -> [ l ]
  | Br { ifso; ifnot; _ } -> [ ifso; ifnot ]

let retarget f = function
  | Ret _ as t -> t
  | Jmp l -> Jmp (f l)
  | Br { cond; ifso; ifnot } -> Br { cond; ifso = f ifso; ifnot = f ifnot }

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"

let bool_i64 b = if b then 1L else 0L

let eval_binop op a b =
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | Div -> if b = 0L then 0L else Int64.div a b
  | Rem -> if b = 0L then 0L else Int64.rem a b
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Shl -> Int64.shift_left a (Int64.to_int b land 63)
  | Shr -> Int64.shift_right a (Int64.to_int b land 63)
  | Eq -> bool_i64 (Int64.equal a b)
  | Ne -> bool_i64 (not (Int64.equal a b))
  | Lt -> bool_i64 (Int64.compare a b < 0)
  | Le -> bool_i64 (Int64.compare a b <= 0)
  | Gt -> bool_i64 (Int64.compare a b > 0)
  | Ge -> bool_i64 (Int64.compare a b >= 0)

let eval_unop op a =
  match op with
  | Neg -> Int64.neg a
  | Not -> bool_i64 (Int64.equal a 0L)

let pp_operand ppf = function
  | Reg r -> Format.fprintf ppf "r%d" r
  | Imm i -> Format.fprintf ppf "%Ld" i

let pp_addr ppf { base; index } =
  Format.fprintf ppf "%s[%a]" base pp_operand index

let unop_name = function Neg -> "neg" | Not -> "not"

let pp_instr ppf = function
  | Move (d, a) -> Format.fprintf ppf "r%d = %a" d pp_operand a
  | Unop (op, d, a) ->
    Format.fprintf ppf "r%d = %s %a" d (unop_name op) pp_operand a
  | Binop (op, d, a, b) ->
    Format.fprintf ppf "r%d = %s %a, %a" d (binop_name op) pp_operand a
      pp_operand b
  | Load (d, addr) -> Format.fprintf ppf "r%d = load %a" d pp_addr addr
  | Store (addr, v) ->
    Format.fprintf ppf "store %a, %a" pp_addr addr pp_operand v
  | Call { dst; callee; args; site; call_count } ->
    let pp_dst ppf = function
      | Some d -> Format.fprintf ppf "r%d = " d
      | None -> ()
    in
    Format.fprintf ppf "%acall %s(%a) #s%d%t" pp_dst dst callee
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp_operand)
      args site
      (fun ppf ->
        if call_count > 0.0 then Format.fprintf ppf " {cnt=%.0f}" call_count)
  | Probe p -> Format.fprintf ppf "probe %d" p

let pp_terminator ppf = function
  | Ret None -> Format.pp_print_string ppf "ret"
  | Ret (Some a) -> Format.fprintf ppf "ret %a" pp_operand a
  | Jmp l -> Format.fprintf ppf "jmp L%d" l
  | Br { cond; ifso; ifnot } ->
    Format.fprintf ppf "br %a, L%d, L%d" pp_operand cond ifso ifnot
