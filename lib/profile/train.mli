(** Training runs: execute an instrumented program and collect its
    profile database.

    This is the "+I, run on training inputs" loop of the paper's
    section 3, using the reference interpreter as the execution
    vehicle (production training would run the instrumented PA-RISC
    binary; the counters are identical either way since both count
    [Probe] executions). *)

val run :
  ?input:int64 array ->
  ?fuel:int ->
  Cmo_il.Ilmod.t list ->
  Db.t ->
  Cmo_il.Interp.outcome
(** [run modules db] instruments [modules], executes [main] on
    [input], folds the counters into [db], and returns the program
    outcome (so callers can cross-check observable behaviour against
    an uninstrumented run).
    @raise Cmo_il.Interp.Runtime_error as the interpreter does. *)
