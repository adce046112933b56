(** The common intermediate language (IL).

    This is the interchange format of the whole pipeline, playing the
    role of the HP-UX "common intermediate language" of the paper's
    section 3: frontends lower source into it, HLO transforms it, LLO
    consumes it, and in CMO mode it is what the object files carry.

    The IL is an untyped (all values are 64-bit integers) three-address
    code over function-local virtual registers, with explicit basic
    blocks.  It is deliberately not SSA: the 1990s production pipeline
    the paper describes predates SSA middle ends, and non-SSA makes
    inlining and cloning plain block grafting plus register renaming. *)

type reg = int
(** Function-local virtual register.  Parameters are registers
    [0 .. arity-1]. *)

type label = int
(** Function-local basic-block label. *)

type operand =
  | Reg of reg
  | Imm of int64

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge
      (** Comparisons produce 0 or 1.  [Div] and [Rem] by zero produce
          0, matching the VM, so optimization cannot introduce traps. *)

type unop = Neg | Not
(** [Not] is logical: [Not x] is 1 when [x = 0], else 0. *)

(** Address of a global memory cell: a named global plus an element
    index.  Scalars are arrays of length 1 with index [Imm 0]. *)
type addr = { base : string; index : operand }

(** Call-site identifier, unique within the enclosing function and
    stable across recompilation of unchanged source; the unit of the
    paper's call-site selectivity and the key for call profiles. *)
type site = int

type instr =
  | Move of reg * operand
  | Unop of unop * reg * operand
  | Binop of binop * reg * operand * operand
  | Load of reg * addr
  | Store of addr * operand
  | Call of call
  | Probe of int
      (** Profile counter increment; inserted by instrumentation
          (+I), counted by the VM/interpreter, stripped by codegen in
          non-instrumented builds. *)

and call = {
  dst : reg option;
  callee : string;
  args : operand list;
  site : site;
  mutable call_count : float;
      (** Profile annotation: executions of this site, from
          correlation; 0 when no profile is attached. *)
}

type terminator =
  | Ret of operand option
  | Jmp of label
  | Br of { cond : operand; ifso : label; ifnot : label }

val map_operands : (operand -> operand) -> instr -> instr
(** Rewrite every operand read by the instruction (not the
    destination register). *)

val map_term_operands : (operand -> operand) -> terminator -> terminator

val def : instr -> reg option
(** The register written, if any. *)

val uses : instr -> reg list
(** Registers read, in operand order (may contain duplicates). *)

val term_uses : terminator -> reg list

val is_pure : instr -> bool
(** True when the instruction has no side effect and its result is
    fully determined by its operands — candidates for DCE and CSE.
    Loads are impure here (stores/calls may clobber memory); the
    optimizer handles them with its own invalidation logic. *)

val targets : terminator -> label list
(** Successor labels, in branch order. *)

val retarget : (label -> label) -> terminator -> terminator

val pp_operand : Format.formatter -> operand -> unit
val pp_instr : Format.formatter -> instr -> unit
val pp_terminator : Format.formatter -> terminator -> unit

val binop_name : binop -> string
val eval_binop : binop -> int64 -> int64 -> int64
(** Constant-fold a binary operation with the IL's semantics
    (division by zero yields 0; shifts are masked to 0..63). *)

val eval_unop : unop -> int64 -> int64
