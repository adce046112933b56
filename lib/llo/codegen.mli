(** Frame building, linearization and final code emission.

    Frame layout (cells above the callee's stack pointer):
    {v
      sp + 0 .. outgoing-1                 outgoing call arguments
      sp + outgoing .. +spills-1           register spill slots
      sp + outgoing+spills .. +saves-1     callee-saved register save area
      sp + frame + k                       caller's outgoing arg k = our
                                           incoming stack argument k
    v}

    The prologue allocates the frame and saves exactly the
    callee-saved registers the allocator used; every return site gets
    the matching epilogue.  Leaf-like functions that need no frame get
    neither — which is precisely why inlining small functions pays on
    this machine.

    Linearization walks blocks in layout order, eliding branches to
    the immediately following block (fall-through), and resolves block
    labels to function-relative instruction indices. *)

val emit : Regalloc.result -> Mach.func_code
(** Emits final, allocator-processed code.  The result still contains
    symbolic [Lga]/[Call_sym] references; the linker resolves them. *)
