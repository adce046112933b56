(** The low-level optimizer and code generator (the "LLO" of the
    paper's Figure 2): block positioning, instruction selection,
    register allocation, peephole optimization, frame building and
    emission, per routine.

    LLO is where the second profile effect lives: with [layout]
    enabled (+P), Pettis–Hansen positioning turns hot edges into
    fall-throughs and banishes cold blocks, which the VM's
    taken-branch and i-cache costs reward.

    LLO's working-set memory is modeled as quadratic in routine size
    (the paper, Figure 4 caption: "LLO's memory requirements increase
    quadratically as the sizes of the routines it processes are
    increased") and charged to the accountant's [Llo] category for
    the duration of each routine's compilation — which is how heavy
    inlining shows up in the "overall compiler" memory series. *)

type stats = {
  routines : int;
  mach_instrs : int;
  spilled_vregs : int;
  peephole_rewrites : int;
  layout_changes : int;
}

val zero_stats : stats

val add_stats : stats -> stats -> stats
(** Field-wise sum: per-module stats fold into a program's. *)

val compile_func :
  ?mem:Cmo_naim.Memstats.t ->
  ?check:(phase:string -> Cmo_il.Func.t -> unit) ->
  ?layout:bool ->
  ?schedule:bool ->
  module_name:string ->
  Cmo_il.Func.t ->
  Mach.func_code
(** [layout] defaults to [false]; enable it for PBO builds.  The
    input function's block order is permuted in place when layout
    runs. *)

val compile_module :
  ?mem:Cmo_naim.Memstats.t ->
  ?check:(phase:string -> Cmo_il.Func.t -> unit) ->
  ?layout:bool ->
  ?schedule:bool ->
  Cmo_il.Ilmod.t ->
  Mach.func_code list * stats
(** [schedule] (default true) runs the list scheduler; disable for
    the scheduling ablation.  [check] runs after block layout — the
    one LLO stage that rewrites IL — under the phase name
    ["layout"]. *)

val modeled_llo_bytes : int -> int
(** Modeled LLO working set for a routine of the given machine
    instruction count. *)
