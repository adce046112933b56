module Func = Cmo_il.Func
module Memstats = Cmo_naim.Memstats

type budget = { mutable remaining : int option; mutable used : int }

let unlimited () = { remaining = None; used = 0 }

let limited n = { remaining = Some n; used = 0 }

let spent b = b.used

(* Consume up to the budget: returns how many of [n] operations are
   allowed; phases are coarse-grained, so a pass that would exceed the
   budget is simply not run (the binary search only needs monotonicity
   in the limit, not exact cutting). *)
let take budget n =
  match budget.remaining with
  | None ->
    budget.used <- budget.used + n;
    n
  | Some r ->
    let granted = min r n in
    budget.remaining <- Some (r - granted);
    budget.used <- budget.used + granted;
    granted

let exhausted budget =
  match budget.remaining with Some 0 -> true | Some _ | None -> false

(* Process-wide count of optimize_func invocations: the phase-work
   meter the incremental-cache tests assert against (a fully
   cache-warm rebuild must not move it).  Atomic: parallel HLO
   workers optimize routines from several domains at once. *)
let processed = Atomic.make 0

let funcs_processed () = Atomic.get processed

(* The scalar pass ladder, named so the verifier hook can say which
   pass broke the IL. *)
let passes : (string * (Func.t -> int)) list =
  [
    ("constprop", Constprop.run);
    ("cfg", fun f -> if Cfg.simplify f then 1 else 0);
    ("unroll", Unroll.run ?max_trip:None ?budget:None);
    ("valnum", Valnum.run);
    ("copyprop", Copyprop.run);
    ("licm", Licm.run);
    ("dce", Dce.run);
    ("cfg2", fun f -> if Cfg.simplify f then 1 else 0);
  ]

let optimize_func ?mem ?(budget = unlimited ()) ?(max_rounds = 4) ?check
    (f : Func.t) =
  Atomic.incr processed;
  (* Per-routine span with the section-6.3 operation count attached at
     close.  [traced] is latched so a begin always meets its end even
     if tracing is switched off mid-routine; with tracing off this is
     one atomic load and no allocation. *)
  let traced = Cmo_obs.Obs.enabled () in
  if traced then Cmo_obs.Obs.span_begin ~cat:"phase" f.Func.name;
  let charge_derived () =
    match mem with
    | None -> fun () -> ()
    | Some mem ->
      (* Model the transient analysis footprint: dominators + liveness
         + loop info for this routine.  Loop info reuses the one
         dominator tree, and the liveness term depends only on the
         block and register counts, so liveness itself is not run. *)
      let doms = Dominators.compute f in
      let loops = Loopinfo.compute ~doms f in
      let bytes =
        Dominators.modeled_bytes doms
        + Liveness.footprint ~blocks:(List.length f.Func.blocks)
            ~nregs:f.Func.next_reg
        + Loopinfo.modeled_bytes loops
      in
      Memstats.charge mem Memstats.Derived bytes;
      fun () -> Memstats.release mem Memstats.Derived bytes
  in
  let total = ref 0 in
  let rounds = ref 0 in
  let changed = ref true in
  while !changed && !rounds < max_rounds && not (exhausted budget) do
    incr rounds;
    let release = charge_derived () in
    let apply (name, pass) =
      if exhausted budget then 0
      else begin
        let n = pass f in
        (* The pass already ran; the budget records what it did.  A
           limited budget that goes negative simply stops later
           passes, preserving monotonicity for the binary search. *)
        ignore (take budget n);
        (match check with
        | Some run_check when n > 0 -> run_check ~phase:name f
        | Some _ | None -> ());
        n
      end
    in
    let n = List.fold_left (fun acc pass -> acc + apply pass) 0 passes in
    release ();
    total := !total + n;
    changed := n > 0
  done;
  if traced then
    Cmo_obs.Obs.span_end
      ~args:
        [
          ("rewrites", string_of_int !total);
          ("rounds", string_of_int !rounds);
        ]
      ();
  !total
