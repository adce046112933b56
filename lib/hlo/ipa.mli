(** Interprocedural analysis and optimization over the CMO set.

    Implements the paper's "limited amount of interprocedural analysis
    across all the modules being optimized" (section 2):

    - {b Constant parameters}: when every call site in the program
      passes the same immediate for a parameter and the function has
      no callers outside the analyzed set, the constant is funneled
      into the entry block as a [Move], which intraprocedural constant
      propagation then exploits.
    - {b Constant globals}: a global that is never stored anywhere —
      MiniC has no address-of, so the store scan is exact — is a
      constant; loads at immediate indices become immediates.
    - {b Dead functions}: functions unreachable from the entry point
      and from externally-callable functions are deleted (typically
      routines fully swallowed by the inliner).

    IPA runs in three parts, after the WHOPR split of GCC's link-time
    optimizer (summaries, then whole-program analysis, then per-function
    transforms):

    + {!summarize} reads one routine's final pre-IPA body into a small
      summary: argument lattices per callee, stored globals, callees,
      the exported flag and the immediate-index global loads.  The
      driver takes it while the routine is already acquired for
      another reason (the end of its inline visit), so IPA costs no
      sweep of its own;
    + {!plan} propagates over the summaries — it reads no routine
      body, only summaries and {!Cmo_naim.Loader.arity_of} — and
      removes the dead functions;
    + {!transform} applies one routine's constant-parameter pins and
      constant-global folds, deferred to when the driver next holds
      the routine (its phase-pipeline visit).

    This keeps the paper's "read everything cheaply" discipline
    (section 5: module-private information "can only be determined if
    all routines that can access a variable are examined"): every
    routine is examined, one at a time, and what stays resident
    between routines is summaries, never expanded pools.

    When only part of the program is in the CMO set (selectivity), the
    driver describes the rest through [context]: which functions the
    outside may call and which globals it may store to. *)

type context = {
  externally_called : string -> bool;
      (** The function may be invoked by code outside the analyzed
          set (or by the runtime); its parameters are unknowable. *)
  externally_stored : string -> bool;
      (** The global may be written by code outside the analyzed set. *)
  entry : string option;
      (** Name of the program entry within the set, normally
          ["main"]. *)
  keep_exported : bool;
      (** Treat every [Exported] function as externally callable.
          This is the shipped-application reality the paper operates
          in: an ISV binary's exported entry points stay callable, so
          only module-private ([static]) routines — typically ones
          fully swallowed by the inliner — can be proved dead or have
          their parameters pinned. *)
}

val whole_program : context
(** CMO over the full program as shipped: entry ["main"],
    [keep_exported = true]. *)

val closed_world : context
(** [whole_program] with [keep_exported = false]: nothing outside the
    set can call in, so unreachable exported functions are dead too.
    The right context for a standalone executable built entirely from
    the CMO set. *)

type stats = {
  const_params : int;  (** Parameters pinned to constants. *)
  const_global_loads : int;  (** Loads folded to immediates. *)
  dead_functions : string list;  (** Removed functions, in order. *)
}

type summary
(** What IPA needs from one routine. *)

val summarize : Cmo_il.Func.t -> summary
(** Read a routine's body.  The body must be final: {!plan}'s
    decisions and {!transform}'s rewrites assume it does not change
    in between. *)

type plan

val plan : Cmo_naim.Loader.t -> context -> (string -> summary) -> plan
(** Propagate over the summaries of the registered routines (the
    function is asked only about those), decide the pins and folds,
    and remove the dead functions from the loader.  Reads no routine
    body. *)

val plan_stats : plan -> stats
(** The counts a full run reports.  Pins and folds are counted on
    every routine, including ones then found dead. *)

val has_transform : plan -> string -> bool
(** Whether the routine has pins or folds to apply. *)

val transform : plan -> Cmo_il.Func.t -> unit
(** Apply the routine's pins and folds (nothing when
    {!has_transform} is false).  The caller must
    {!Cmo_naim.Loader.update} the routine afterwards. *)

val run : Cmo_naim.Loader.t -> context -> stats
(** The three parts in sequence over the loader: summarize every
    routine, plan, then transform every survivor that has work. *)
