(** Linear-scan register allocation.

    Assigns the virtual registers of a {!Isel.vcode} to the twenty
    allocatable physical registers, spilling to frame slots when
    pressure exceeds supply.  The spill victim is the interval with
    the lowest profile-weighted use count (block frequencies from
    correlation weight each access; the paper's PBO improvement to
    the register-allocation cost model), ties broken toward the
    furthest endpoint — the classic linear-scan choice, which is also
    what an unprofiled compilation degenerates to when weights are
    uniform.  Spilled operands are rewritten through the scratch
    registers; the stack-pointer-relative slot offsets assume the
    {!Codegen} frame layout (outgoing args, then spill slots, then
    the callee-saved save area).

    Intervals are computed from machine-level liveness over the block
    layout order, conservatively covering lifetime holes — the classic
    Poletto–Sarkar formulation, which is what a 1990s production
    low-level optimizer's allocator approximates at this altitude. *)

type result = {
  vcode : Isel.vcode;  (** Same value, rewritten in place: physical registers only. *)
  spill_slots : int;
  used_callee_saved : Mach.reg list;
      (** Allocatable registers actually assigned, ascending — the
          prologue must save exactly these. *)
  spilled_vregs : int;  (** How many virtual registers went to memory. *)
}

val run : Isel.vcode -> result

val intervals : Isel.vcode -> (int * int * int * float) list
(** The live intervals {!run} allocates, as [(vreg, lo, hi, weight)]
    in allocation order (ascending [lo], then [vreg]).  Positions
    number the instructions and terminators of the blocks in layout
    order.  Exposed for tests. *)
