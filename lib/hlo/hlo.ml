module Loader = Cmo_naim.Loader
module Func = Cmo_il.Func
module Fingerprint = Cmo_support.Fingerprint
module Store = Cmo_cache.Store
module Funcodec = Cmo_cache.Funcodec
module W = Cmo_support.Codec.Writer
module R = Cmo_support.Codec.Reader

(* The phase tier is accessed through closures rather than a store
   handle: the sequential pipeline passes the store's own find/add,
   parallel component workers pass their transaction's logged
   operations. *)
type phase_cache = {
  pc_find : string -> string option;
  pc_add : string -> string -> unit;
}

let store_phase_cache store =
  { pc_find = Store.find store; pc_add = Store.add store }

type options = {
  clone : Clone.config option;
  inline : Inline.config option;
  ipa : bool;
  hot_filter : (string -> bool) option;
  rewrite_limit : int option;
  phase_cache : phase_cache option;
  check : (phase:string -> Func.t -> unit) option;
}

let o4_options ~profile =
  {
    clone = (if profile then Some Clone.default_config else None);
    inline =
      Some (if profile then Inline.default_config else Inline.aggressive_no_profile);
    ipa = true;
    hot_filter = None;
    rewrite_limit = None;
    phase_cache = None;
    check = None;
  }

(* The phase pipeline is purely intraprocedural, so its result is a
   function of the routine body alone: cache it content-addressed.
   The envelope also records the rewrite count so reports stay
   identical between cached and uncached builds.  Disabled under a
   rewrite limit, whose budget is shared across routines. *)
let phase_version = "fn1"

let optimize_func_cached pc ~mem ~budget ?check (f : Func.t) =
  let before = Funcodec.encode f in
  let key = Fingerprint.of_strings [ phase_version; before ] in
  let hit =
    match pc.pc_find key with
    | None -> None
    | Some entry -> (
      match
        let r = R.of_string entry in
        let n = R.uvarint r in
        (n, Funcodec.decode (R.string r))
      with
      | n, g when g.Func.name = f.Func.name && g.Func.arity = f.Func.arity ->
        Some (n, g)
      | _ -> None
      | exception R.Corrupt _ -> None)
  in
  match hit with
  | Some (n, g) ->
    Funcodec.overwrite ~dst:f g;
    (* Cached bodies were verified when first produced, but the cache
       itself is now part of the trusted path: re-check the decode. *)
    (match check with
    | Some run_check -> run_check ~phase:"phase-cache" f
    | None -> ());
    n
  | None ->
    let n = Phase.optimize_func ~mem ~budget ?check f in
    let w = W.create () in
    W.uvarint w n;
    W.string w (Funcodec.encode f);
    pc.pc_add key (W.contents w);
    n

type report = {
  clones : int;
  inline_stats : Inline.stats option;
  ipa_stats : Ipa.stats option;
  funcs_optimized : int;
  funcs_skipped : int;
  rewrites : int;
}

(* Component reports fold into one program report: counters add,
   dead-function lists concatenate in merge (= component) order. *)
let merge_reports a b =
  let opt2 f = function
    | Some x, Some y -> Some (f x y)
    | (Some _ as s), None | None, (Some _ as s) -> s
    | None, None -> None
  in
  {
    clones = a.clones + b.clones;
    inline_stats =
      opt2
        (fun (x : Inline.stats) (y : Inline.stats) ->
          {
            Inline.operations = x.Inline.operations + y.Inline.operations;
            cross_module = x.Inline.cross_module + y.Inline.cross_module;
            bytes_grown = x.Inline.bytes_grown + y.Inline.bytes_grown;
            rejected_too_big =
              x.Inline.rejected_too_big + y.Inline.rejected_too_big;
            rejected_cold = x.Inline.rejected_cold + y.Inline.rejected_cold;
            rejected_recursive =
              x.Inline.rejected_recursive + y.Inline.rejected_recursive;
            rejected_caller_full =
              x.Inline.rejected_caller_full + y.Inline.rejected_caller_full;
          })
        (a.inline_stats, b.inline_stats);
    ipa_stats =
      opt2
        (fun (x : Ipa.stats) (y : Ipa.stats) ->
          {
            Ipa.const_params = x.Ipa.const_params + y.Ipa.const_params;
            const_global_loads =
              x.Ipa.const_global_loads + y.Ipa.const_global_loads;
            dead_functions = x.Ipa.dead_functions @ y.Ipa.dead_functions;
          })
        (a.ipa_stats, b.ipa_stats);
    funcs_optimized = a.funcs_optimized + b.funcs_optimized;
    funcs_skipped = a.funcs_skipped + b.funcs_skipped;
    rewrites = a.rewrites + b.rewrites;
  }

let run loader cg ?(ipa_context = Ipa.whole_program) options =
  (* With [check] on, verify every routine after each
     interprocedural stage: these stages mint registers, labels and
     call sites (clone/inline) and delete functions (IPA), exactly
     the invariants the verifier polices.  Clone and inline get a
     sweep of their own; IPA's check runs in the phase sweep. *)
  let sweep phase =
    match options.check with
    | None -> ()
    | Some run_check ->
      List.iter
        (fun fname ->
          Loader.with_func loader fname (fun f -> run_check ~phase f))
        (Loader.func_names loader)
  in
  let clones =
    match options.clone with
    | Some config ->
      Cmo_obs.Obs.with_span ~cat:"hlo" "clone" (fun () ->
          Clone.run loader cg config)
    | None -> 0
  in
  if options.clone <> None then sweep "clone";
  (* IPA summaries are taken where the routine is final and already
     acquired: at the end of its inline visit. *)
  let summaries = Hashtbl.create 256 in
  let summarize (f : Func.t) =
    Hashtbl.replace summaries f.Func.name (Ipa.summarize f)
  in
  let inline_stats =
    Option.map
      (fun config ->
        Cmo_obs.Obs.with_span ~cat:"hlo" "inline" (fun () ->
            Inline.run
              ?on_final:(if options.ipa then Some summarize else None)
              loader cg config))
      options.inline
  in
  if options.inline <> None then sweep "inline";
  let ipa_plan =
    if options.ipa then
      Some
        (Cmo_obs.Obs.with_span ~cat:"hlo" "ipa" (fun () ->
             (* The inliner does not visit clones (they are outside
                the call graph), callers left once its operation limit
                is reached, or anything when inlining is off. *)
             List.iter
               (fun fname ->
                 if not (Hashtbl.mem summaries fname) then
                   Loader.with_func loader fname summarize)
               (Loader.func_names loader);
             Ipa.plan loader ipa_context (Hashtbl.find summaries)))
    else None
  in
  Hashtbl.reset summaries;
  let ipa_stats = Option.map Ipa.plan_stats ipa_plan in
  if Cmo_obs.Obs.enabled () then begin
    if clones > 0 then Cmo_obs.Obs.tick "hlo" "clones" clones;
    (match inline_stats with
    | Some (s : Inline.stats) ->
      Cmo_obs.Obs.tick "hlo" "inline_operations" s.Inline.operations;
      Cmo_obs.Obs.tick "hlo" "inline_cross_module" s.Inline.cross_module
    | None -> ());
    match ipa_stats with
    | Some (s : Ipa.stats) ->
      Cmo_obs.Obs.tick "hlo" "ipa_const_params" s.Ipa.const_params;
      Cmo_obs.Obs.tick "hlo" "ipa_dead_functions"
        (List.length s.Ipa.dead_functions)
    | None -> ()
  end;
  let budget =
    match options.rewrite_limit with
    | Some n -> Phase.limited n
    | None -> Phase.unlimited ()
  in
  let mem = Loader.memstats loader in
  let funcs_optimized = ref 0 in
  let funcs_skipped = ref 0 in
  let rewrites = ref 0 in
  (* The phase sweep also applies IPA's deferred transforms and runs
     the "ipa" check, so a cold routine is acquired only when it has a
     transform or checking is on. *)
  let ipa_check =
    match (ipa_plan, options.check) with
    | Some _, Some run_check -> Some run_check
    | _ -> None
  in
  List.iter
    (fun fname ->
      let hot =
        match options.hot_filter with Some f -> f fname | None -> true
      in
      let transform =
        match ipa_plan with
        | Some p when Ipa.has_transform p fname -> Some p
        | Some _ | None -> None
      in
      if hot then incr funcs_optimized else incr funcs_skipped;
      if hot || transform <> None || ipa_check <> None then
        Loader.with_func loader fname (fun f ->
            Option.iter
              (fun p ->
                Ipa.transform p f;
                Loader.update loader f)
              transform;
            Option.iter (fun run_check -> run_check ~phase:"ipa" f) ipa_check;
            if hot then begin
              let n =
                match (options.phase_cache, options.rewrite_limit) with
                | Some pc, None ->
                  optimize_func_cached pc ~mem ~budget ?check:options.check f
                | _ -> Phase.optimize_func ~mem ~budget ?check:options.check f
              in
              rewrites := !rewrites + n;
              Loader.update loader f
            end))
    (Loader.func_names loader);
  Loader.unload_all loader;
  {
    clones;
    inline_stats;
    ipa_stats;
    funcs_optimized = !funcs_optimized;
    funcs_skipped = !funcs_skipped;
    rewrites = !rewrites;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>clones %d; funcs optimized %d, skipped %d; rewrites %d" r.clones
    r.funcs_optimized r.funcs_skipped r.rewrites;
  (match r.inline_stats with
  | Some s ->
    Format.fprintf ppf "@,inlines %d (%d cross-module), grew %d bytes"
      s.Inline.operations s.Inline.cross_module s.Inline.bytes_grown;
    Format.fprintf ppf
      "@,sites not inlined: %d too big, %d cold, %d recursive, %d caller-full"
      s.Inline.rejected_too_big s.Inline.rejected_cold
      s.Inline.rejected_recursive s.Inline.rejected_caller_full
  | None -> ());
  (match r.ipa_stats with
  | Some s ->
    Format.fprintf ppf "@,ipa: %d const params, %d const loads, %d dead funcs"
      s.Ipa.const_params s.Ipa.const_global_loads
      (List.length s.Ipa.dead_functions)
  | None -> ());
  Format.fprintf ppf "@]"
