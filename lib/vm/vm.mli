(** The machine simulator: executes a linked {!Cmo_link.Image} under
    the {!Costmodel}, producing observable output, cycle counts, and
    (for instrumented binaries) profile counters.

    Observable semantics are identical to the IL reference interpreter
    ({!Cmo_il.Interp}): division by zero yields zero, shifts mask
    their amount, [arg] wraps modulo the input length, [print] appends
    to the output stream.  Differential tests rely on this.

    Register 0 always reads zero; writes to it are discarded.  The
    return-address stack is internal (not addressable).  Memory is
    the data segment with the stack above it, growing down; any access
    outside [0, memory size) traps. *)

type outcome = {
  ret : int64;
  output : int64 list;
  cycles : int;  (** Modeled run time — the paper's seconds. *)
  instructions : int;  (** Instructions retired. *)
  icache_accesses : int;
  icache_misses : int;
  taken_branches : int;
  calls : int;
  dcache_accesses : int;
  dcache_misses : int;
  probes : (int * int64) list;  (** Sorted by probe id. *)
  func_cycles : (string * int) list;
      (** With [attribute]: cycles charged to each routine (by the
          address of the executing instruction, i-cache misses
          included), hottest first.  Empty otherwise. *)
}

exception Fault of string
(** Memory out of bounds, stack overflow or underflow, call stack
    overflow, pc outside the code, fuel exhaustion, unresolved symbolic
    instruction, or an instruction naming a register outside r0-r31
    (each when it executes). *)

val run :
  ?input:int64 array ->
  ?fuel:int ->
  ?stack_cells:int ->
  ?costmodel:Costmodel.t ->
  ?attribute:bool ->
  Cmo_link.Image.t ->
  outcome
(** [fuel] bounds retired instructions (default 500 million);
    [stack_cells] default 65536; [attribute] (default false) turns on
    per-routine cycle attribution — the flat-profile view performance
    analysts read.

    The image is decoded once per call into flat tables (see
    DESIGN.md, "The pre-decoded VM"); the interpreter loop then
    allocates nothing per instruction. *)
