(** The virtual RISC target machine.

    A PA-RISC-flavoured 64-bit load/store architecture, word (8-byte
    cell) addressed, with a separate code space.  This is the
    substrate that makes the paper's run-time effects measurable on a
    simulator: calls cost prologue/epilogue work, taken branches cost
    a penalty, and instructions are fetched through a direct-mapped
    i-cache, so inlining and profile-guided layout pay off exactly as
    they do on hardware (see {!Cmo_vm.Costmodel}).

    Register convention:
    - [r0]: hardwired zero;
    - [r1], [r28], [r29]: assembler scratch (spill reloads, address
      formation);
    - [r2]: stack pointer, in cells, growing down;
    - [r3]: return value;
    - [r4]-[r7]: arguments 0-3 (further arguments on the stack);
    - [r8]-[r27]: allocatable, callee-saved.

    Because every allocatable register is callee-saved, a call
    clobbers nothing the caller holds in registers; call overhead is
    the callee's save/restore traffic plus control transfer —
    precisely the cost inlining removes.

    The return address is managed by the machine (an internal link
    stack), as on architectures with a hardware return-address stack;
    [Call]/[Ret] prices include it.

    Branch and call targets are function-relative instruction indices
    in a {!func_code}; linking rebases them to absolute addresses and
    resolves symbolic references ([Lga], [Call_sym]). *)

type reg = int

val reg_zero : reg
val reg_scratch1 : reg
val reg_sp : reg
val reg_rv : reg
val reg_arg : int -> reg
(** [reg_arg i] for [i < 4]. *)

val num_arg_regs : int
val reg_scratch2 : reg
val reg_scratch3 : reg
val allocatable : reg list
(** r8..r27 in allocation preference order. *)

val first_vreg : reg
(** Registers at or above this are virtual (pre-allocation). *)

type sys = Sys_print | Sys_arg

type instr =
  | Li of reg * int64
  | Mv of reg * reg
  | Op of Cmo_il.Instr.binop * reg * reg * reg
  | Opi of Cmo_il.Instr.binop * reg * reg * int64
  | Un of Cmo_il.Instr.unop * reg * reg
  | Ld of reg * reg * int  (** [Ld (rd, base, off)]: rd <- mem\[base+off\]. *)
  | St of reg * reg * int  (** [St (rs, base, off)]: mem\[base+off\] <- rs. *)
  | Lga of reg * string  (** Load a global's base address (symbolic). *)
  | B of int
  | Bz of reg * int
  | Bnz of reg * int
  | Call_sym of string  (** Direct call, symbolic (pre-link). *)
  | Call_abs of int  (** Direct call, absolute (post-link). *)
  | Sys of sys
  | Ret
  | Adjsp of int  (** sp <- sp + n cells (negative allocates). *)
  | Cnt of int  (** Bump profile counter (instrumented builds). *)
  | Halt

type func_code = {
  fname : string;
  module_name : string;
  code : instr array;
  src_lines : int;  (** Carried through for reports. *)
}

val defs : instr -> reg list
(** Registers written (excluding implicit sp updates by [Adjsp]). *)

val uses : instr -> reg list

val uses_mask : instr -> int
(** [uses] as a bitmask (bit [r] for register [r]), built without a
    list; meaningful for physical registers only. *)

val iter_defs : (reg -> unit) -> instr -> unit
val iter_uses : (reg -> unit) -> instr -> unit
(** [defs] and [uses] without the list: [f] sees each register in
    the list's order, a register read twice twice.  The dense back
    end's operand walk. *)

val retarget : (int -> int) -> instr -> instr
(** Rewrite branch/call-absolute targets. *)

val instr_bytes : int
(** Code-space footprint of one instruction (fixed-width encoding);
    the unit of the i-cache model. *)

val pp_instr : Format.formatter -> instr -> unit
val pp_func : Format.formatter -> func_code -> unit

val encode_func : func_code -> string
val decode_func : string -> func_code
(** Object-file payload codec.
    @raise Cmo_support.Codec.Reader.Corrupt on malformed input,
    including a register at or above {!first_vreg}. *)
