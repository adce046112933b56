(** Profile instrumentation (+I builds).

    Mirrors the paper's section 3: "the current technology inserts
    counting probes into each intraprocedural branch and each call".
    Concretely, on a copy of the frontend IL we:

    - prepend a [Probe] to every basic block (block counts; the count
      of a call site is the count of its containing block, since IL
      calls do not end blocks);
    - split every conditional-branch edge through a fresh trampoline
      block holding a [Probe] (edge counts for profile-guided code
      positioning); unconditional edges need no probe — their count is
      the source block's.

    Probe ids are dense and program-global; the manifest maps each id
    back to the {!Db.key} it measures.  Because frontend output is
    deterministic, block labels in the manifest correlate directly
    with the labels HLO sees when recompiling the same source. *)

type manifest
(** Mapping from probe id to the profile-database key it increments. *)

val instrument : Cmo_il.Ilmod.t list -> Cmo_il.Ilmod.t list * manifest
(** Returns instrumented deep copies; the inputs are not modified. *)

val probe_count : manifest -> int

val record_counters : manifest -> (int * int64) list -> Db.t -> unit
(** Fold raw [(probe id, count)] counters (as produced by the
    interpreter or the VM) into a profile database, accumulating with
    existing counts — the paper's database is "generated (or added
    to, if data from an earlier run already exists)". *)
