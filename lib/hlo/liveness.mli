(** Backward liveness dataflow over virtual registers.

    Per-block live-in/live-out sets, used by dead-code elimination in
    HLO and by spill-cost estimation in the register allocator.
    Derived data: recomputed per use.

    Each block's gen/kill sets are computed once; the fixpoint is
    {!Cmo_support.Dataflow.backward} (shared with the register
    allocator) over word bitsets held in arrays indexed by layout
    position. *)

type t

val compute : Cmo_il.Func.t -> t

val live_out : t -> Cmo_il.Instr.label -> Cmo_il.Instr.reg list
(** Registers live on exit from the block, ascending. *)

val live_out_set : t -> Cmo_il.Instr.label -> Cmo_support.Bitset.t
(** A fresh copy of the live-out set over [0 .. next_reg-1], empty for
    a label that is not a block: the starting point of a backward walk
    through the block. *)

val live_in : t -> Cmo_il.Instr.label -> Cmo_il.Instr.reg list

val live_out_mem : t -> Cmo_il.Instr.label -> Cmo_il.Instr.reg -> bool

val live_in_mem : t -> Cmo_il.Instr.label -> Cmo_il.Instr.reg -> bool
(** [List.mem r (live_in t label)] without building the list: one
    bit test.  False for a label that is not a block. *)

val footprint : blocks:int -> nregs:int -> int
(** Modeled footprint for the Derived memory category of liveness
    over [blocks] blocks and [nregs] registers.  A function of the two
    sizes alone, so the charge needs no liveness run. *)
