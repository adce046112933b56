(** Structural memory model for expanded IL objects.

    The paper reports optimizer memory in absolute terms (1.7 KB per
    source line in the HP-UX 9.0 HLO, 0.9 KB after IR compaction,
    Figure 4/5 in MB).  The resident-set size of an OCaml process is
    GC-dominated and cannot be attributed to individual pools, so the
    NAIM accountant instead charges each pool its *modeled* expanded
    byte size, calibrated to the paper's reported economics:

    - an expanded IR object carries operand pointers, list links, and
      derived-attribute slots (dataflow arcs, loop annotations) that
      the paper says occupy about 2/3 of the object;
    - the compacted size is the honest byte length of the
      {!Ilcodec} encoding, so the expanded/compacted ratio is partly
      measured, partly modeled.

    All constants live here so the calibration is in one place. *)

val instr_core_bytes : int
(** Modeled bytes of an expanded instruction without derived slots. *)

val instr_derived_bytes : int
(** Modeled bytes of the derived-attribute slots of an instruction
    (about 2/3 of the whole object, per the paper's section 4.2.2). *)

val block_overhead_bytes : int
val func_overhead_bytes : int
val symbol_entry_bytes : int
(** Per symbol-table entry (name, kind, shape, handle). *)

val func_expanded_bytes : Func.t -> int
(** Full expanded footprint of a routine's IR pool, derived slots
    included. *)

val func_expanded_core_bytes : Func.t -> int
(** Expanded footprint with derived slots stripped — what remains
    resident for a routine whose derived data has been discarded. *)

val func_charges : Func.t -> int * int
(** [(func_expanded_bytes f, compacted)] from one walk over the
    routine: what the NAIM loader records per mutation.  [compacted]
    is the modeled in-memory relocatable footprint: derived slots
    gone, stack layout, pointer fields elided (paper section 4.2.2).
    This is what a compacted-but-resident pool charges; the
    serialized byte stream ({!Ilcodec}) is denser and is what reaches
    the repository and object files. *)

val module_symtab_expanded_bytes : Ilmod.t -> int
(** Expanded footprint of the module symbol table pool: globals,
    function entries and their names. *)

val module_expanded_bytes : Ilmod.t -> int
(** Symbol table plus all routine pools. *)
