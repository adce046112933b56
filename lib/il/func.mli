(** IL functions: a CFG of basic blocks in an explicit layout order.

    The block list order is the layout order — it is what the
    profile-guided code positioning phase permutes and what codegen
    emits, so "fall-through" is meaningful.  The entry block is
    identified explicitly and need not be first, although the verifier
    warns when it is not since codegen prefers it.

    Derived information (predecessors, dominators, liveness) is not
    stored here; following the paper's discipline (section 4.1) it is
    recomputed from scratch by the analyses that need it and can be
    discarded at any time. *)

type block = {
  label : Instr.label;
  mutable instrs : Instr.instr list;
  mutable term : Instr.terminator;
  mutable freq : float;
      (** Profile annotation: estimated executions of this block; 0
          when no profile is attached. *)
}

type linkage =
  | Exported  (** Visible to other modules; address may escape. *)
  | Local     (** Module-private; CMO may clone/remove freely. *)

type t = {
  name : string;
  arity : int;
  mutable linkage : linkage;
  mutable entry : Instr.label;
  mutable blocks : block list;  (** In layout order. *)
  mutable next_reg : int;
  mutable next_label : int;
  mutable next_site : int;
  mutable src_lines : int;
      (** Source lines this function was lowered from; the unit of the
          paper's memory-per-line accounting. *)
}

val create : name:string -> arity:int -> linkage:linkage -> t
(** A fresh function with no blocks.  Registers [0..arity-1] are the
    parameters. *)

val add_block : t -> ?freq:float -> Instr.instr list -> Instr.terminator -> block
(** Append a new block (in layout order) with a fresh label. *)

val new_reg : t -> Instr.reg
val new_label : t -> Instr.label
val new_site : t -> Instr.site

val find_block : t -> Instr.label -> block
(** Raises [Not_found] for an unknown label. *)

val find_block_opt : t -> Instr.label -> block option

val entry_block : t -> block

val label_bound : t -> int
(** 1 + the largest label named by a block, a terminator or the
    entry: a table of this length can be indexed by every label of
    the routine, including a branch target with no block.  Labels
    are non-negative, as {!new_label} hands them out. *)

(** A label-indexed view of the CFG, freshly built (derived data). *)
type index = private {
  bound : int;  (** {!label_bound}. *)
  block_at : block option array;
      (** Label -> block, answering exactly as {!find_block_opt} does
          (the first block with the label). *)
  npreds : int array;
      (** Label -> number of CFG edges into it; a [Br] whose arms
          agree counts twice. *)
  pred : Instr.label array;
      (** Label -> its predecessor when [npreds] is 1 (otherwise
          unspecified). *)
}

val index : t -> index

val sole_pred : index -> Instr.label -> Instr.label
(** The predecessor of a label reached by exactly one CFG edge, or
    [-1] — the "predecessor list is exactly [\[p\]]" test. *)

val predecessors : t -> index -> Instr.label list array
(** Label -> predecessor labels, one per edge, in layout order. *)

val reachable : t -> index -> bool array
(** Label -> reachable from the entry block. *)

val instr_count : t -> int
(** Number of instructions, excluding terminators. *)

val site_calls : t -> (Instr.site * Instr.call) list
(** All call instructions with their sites, in layout order. *)

val copy : t -> t
(** Deep copy: shares no mutable state with the original.  Used by
    cloning, by the bug-isolation driver, and to snapshot a function
    before a speculative transformation. *)

val pp : Format.formatter -> t -> unit
