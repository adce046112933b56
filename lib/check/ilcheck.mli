(** The between-phase IL well-formedness verifier.

    {!Cmo_il.Verify} is the frontend's acceptance check: it validates a
    module as lowering produced it.  [Ilcheck] is the optimizer's
    conscience: it is re-run after {e every} transformation phase (when
    [Options.check] / [cmoc --check] / [$CMO_CHECK] is on) and enforces
    the invariants a phase could silently break:

    - {b CFG consistency}: a function has blocks, its entry label
      exists, labels are unique and within the label counter, every
      branch targets an existing block;
    - {b def-before-use}: along every path from the entry, a register
      is written before it is read (parameters [0..arity-1] are defined
      on entry).  Computed by a must-defined forward dataflow over the
      reachable CFG, so joins are handled exactly;
    - {b counter hygiene}: registers below [next_reg], call sites
      unique and below [next_site] — the invariants cloning, inlining
      and unrolling must maintain when they mint names;
    - {b linkage agreement}: every callee resolves (against the
      environment assembled from the linked callgraph / NAIM loader /
      outside-context modules) to a function of matching arity, and
      every address base to a global — including that no call dangles
      into a function IPA removed and the loader compacted away (the
      NAIM ownership invariant).

    Violations carry the phase, function and offending instruction, so
    a failing build names the guilty pass directly. *)

type binding =
  | Func_binding of { arity : int }
  | Global_binding of { size : int }

type env = { resolve : string -> binding option }
(** Name resolution for linkage checks.  The environment is closed:
    a name that resolves to [None] (and is not an intrinsic) is a
    violation.  Omitting the environment skips linkage checks only. *)

val env_of_modules : Cmo_il.Ilmod.t list -> env
(** Snapshot the functions and globals of [modules] into a closed
    environment (names are copied out — later mutation of the modules,
    including loader registration emptying them, does not affect it). *)

val compose : env -> env -> env
(** [compose a b] resolves through [a] first, then [b]. *)

type violation = {
  phase : string;  (** The phase after which the check ran. *)
  func : string;
  instr : string option;  (** Rendered offending instruction, if any. *)
  message : string;
}

exception Violation of violation list
(** Raised by the [_exn] checkers; never empty. *)

val check_func : ?env:env -> phase:string -> Cmo_il.Func.t -> violation list
val check_func_exn : ?env:env -> phase:string -> Cmo_il.Func.t -> unit

val check_modules :
  ?env:env -> phase:string -> Cmo_il.Ilmod.t list -> violation list
(** Checks every function of every module, plus program-level
    uniqueness of function and global names.  [env] defaults to
    [env_of_modules modules] (the closed program). *)

val pp_violation : Format.formatter -> violation -> unit
