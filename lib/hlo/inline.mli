(** Cross-module inlining — the paper's headline optimization ("its
    main benefit is in enabling profile-based cross-module inlining",
    section 7, citing the companion Aggressive Inlining paper [1]).

    Inlining is plain block grafting in the non-SSA IL: callee blocks
    are spliced into the caller with registers, labels and call-site
    ids renamed; argument binding becomes [Move]s; returns become
    jumps to the split-off continuation block.

    Heuristics:
    - never inline intrinsics, recursive functions (any cycle member),
      or self calls;
    - callees at or below [always_threshold] instructions are inlined
      unconditionally (call overhead dominates);
    - with profile data, a site is inlined when its benefit density —
      dynamic calls per callee instruction — exceeds
      [hot_density_ratio] times the program-average call density
      (scale-free, so training-run length does not matter), it clears
      the [hot_count_threshold] noise floor, and the callee is at most
      [hot_size_limit] instructions; this prefers hot-and-small over
      warm-and-large, pricing the i-cache cost of duplicated code;
    - without profile data (+O4 alone), [cold_size_limit] applies
      everywhere — the thorough-but-expensive mode whose compile-time
      consequences section 5 describes;
    - the caller stops growing at [caller_size_limit] instructions and
      each weakly-connected call-graph component at [program_growth]
      times its initial size.  The growth budget is per component (not
      program-wide) so that re-optimizing a component in isolation
      makes exactly the decisions a full run makes for it — the
      independence the incremental artifact cache relies on; inlining
      never crosses component boundaries, so the cap is equally
      binding.

    Profile annotations are scaled on the way in: inlined block
    frequencies and call counts are multiplied by
    [site count / callee entry count].

    [operation_limit] bounds the number of inline operations performed
    program-wide; the bug-isolation driver (section 6.3) binary
    searches over it to pinpoint a faulty operation. *)

type config = {
  always_threshold : int;
  hot_count_threshold : float;  (** Absolute noise floor. *)
  hot_density_ratio : float;
      (** Required ratio of site call density (calls per callee
          instruction) to the program-average call density. *)
  hot_size_limit : int;
  cold_size_limit : int;
  caller_size_limit : int;
  program_growth : float;
  use_profile : bool;
  operation_limit : int option;
}

val default_config : config
(** Profile-guided defaults: always 12, density ratio 2.0 with a
    floor of 8 calls, hot size 600, cold size 0 (profile mode inlines
    cold sites only below [always_threshold]), caller cap 2400,
    growth 1.8. *)

val aggressive_no_profile : config
(** The +O4-without-profile heuristics: [cold_size_limit] 60 and
    growth 2.5 — thorough, and expensive on big programs, as the paper
    found. *)

type stats = {
  operations : int;  (** Call sites inlined. *)
  cross_module : int;  (** ... of which crossed a module boundary. *)
  bytes_grown : int;  (** Net modeled expanded-byte growth. *)
  rejected_too_big : int;  (** Hot sites whose callee exceeded limits. *)
  rejected_cold : int;  (** Sites below the hotness floor. *)
  rejected_recursive : int;  (** Cycle members and self calls. *)
  rejected_caller_full : int;
      (** Caller at its size cap.  Together, the rejection tallies
          are the paper's section-6.2 "diagnostics on what the
          compiler is optimizing": they tell a performance analyst
          why the inliner left call overhead behind. *)
}

val run :
  ?on_final:(Cmo_il.Func.t -> unit) ->
  Cmo_naim.Loader.t -> Cmo_il.Callgraph.t -> config -> stats
(** Process every function in bottom-up call-graph order, inlining
    qualifying sites (including sites exposed by earlier inlining in
    the same caller, to a fixed point under the size caps).  Functions
    are acquired from and released to the loader one caller at a time;
    candidate callees are acquired grouped by defining module so
    cross-module inlines from the same module pair load the module
    symbol table once (the paper's cache-aware inline scheduling,
    section 4.3).  Call-graph node sizes are updated in place.

    A caller is marked modified ({!Cmo_naim.Loader.update}) only when
    its visit inlined a site or {!Cfg.simplify} changed it, so the
    loader can reuse the encoding of a routine the inliner only read.
    [on_final] sees each visited caller at the end of its visit,
    still acquired: callees are only read, so that body is the
    routine's final one for the rest of the run.  Callers skipped
    once [operation_limit] is reached are not visited. *)

val inline_call_at :
  caller:Cmo_il.Func.t ->
  site:Cmo_il.Instr.site ->
  callee:Cmo_il.Func.t ->
  bool
(** Low-level single-site inliner (exposed for unit tests and the
    isolation driver): inline [callee] at the unique call site [site]
    of [caller].  Returns [false] when the site does not exist or
    calls a different function than [callee]. *)
