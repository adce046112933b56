module Ilmod = Cmo_il.Ilmod
module Func = Cmo_il.Func
module Instr = Cmo_il.Instr
module Verify = Cmo_il.Verify
module Callgraph = Cmo_il.Callgraph
module Intrinsics = Cmo_il.Intrinsics
module Ilcodec = Cmo_il.Ilcodec
module Fingerprint = Cmo_support.Fingerprint
module Fsio = Cmo_support.Fsio
module Store = Cmo_cache.Store
module Invalidate = Cmo_cache.Invalidate
module Frontend = Cmo_frontend.Frontend
module Db = Cmo_profile.Db
module Probe = Cmo_profile.Probe
module Correlate = Cmo_profile.Correlate
module Loader = Cmo_naim.Loader
module Memstats = Cmo_naim.Memstats
module Hlo = Cmo_hlo.Hlo
module Inline = Cmo_hlo.Inline
module Ipa = Cmo_hlo.Ipa
module Phase = Cmo_hlo.Phase
module Selectivity = Cmo_hlo.Selectivity
module Llo = Cmo_llo.Llo
module Objfile = Cmo_link.Objfile
module Linker = Cmo_link.Linker
module Cluster = Cmo_link.Cluster
module Image = Cmo_link.Image
module Vm = Cmo_vm.Vm
module Ilcheck = Cmo_check.Ilcheck
module Obs = Cmo_obs.Obs
module Json = Cmo_obs.Json

let log_src = Logs.Src.create "cmo.driver" ~doc:"CMO compilation driver"

module Log = (val Logs.src_log log_src : Logs.LOG)

type source = { name : string; text : string }

(* Module-level artifact traffic for one build; the store's own
   counters additionally include the per-routine phase cache. *)
type cache_usage = {
  hits : int;  (** Module artifacts served from the local store. *)
  misses : int;  (** Lookups served by neither local store nor remote. *)
  remote_hits : int;
      (** Module artifacts fetched from the remote cache (and adopted
          into the local store). *)
  remote_misses : int;
      (** Remote lookups that missed — failed or disabled remotes
          count here too, never as errors. *)
  cmo_cached : string list;  (** CMO-set modules taken from the store. *)
  cmo_reoptimized : string list;
      (** CMO-set modules whose link-time optimization actually ran. *)
}

type report = {
  options : Options.t;
  hlo : Hlo.report option;
  loader_stats : Loader.stats option;
  mem_peak : int;
  mem_peak_hlo : int;
  selection : Selectivity.t option;
  llo : Llo.stats;
  frontend_seconds : float;
  hlo_seconds : float;
  llo_seconds : float;
  link_seconds : float;
  (* cpu-seconds above (process-wide, all domains); wall-clock below
     for the three parallelizable phases — their ratio is the
     realized parallel speedup. *)
  frontend_wall_seconds : float;
  hlo_wall_seconds : float;
  llo_wall_seconds : float;
  workers_used : int;
  total_lines : int;
  cmo_lines : int;
  warm_lines : int;  (* default-level (+O2) lines outside the CMO set *)
  cold_lines : int;  (* tiered mode: never-executed lines, minimal compile *)
  cache : cache_usage option;  (* None when no artifact store was given *)
  obs : Obs.summary option;  (* trace summary; None when not tracing *)
}

(* The one definition of the cpu/wall arithmetic: [par_speedup],
   [report_to_json] and the bench tables all read these accessors. *)
let phase_cpu_seconds r = r.frontend_seconds +. r.hlo_seconds +. r.llo_seconds

let phase_wall_seconds r =
  r.frontend_wall_seconds +. r.hlo_wall_seconds +. r.llo_wall_seconds

let par_speedup r =
  let cpu = phase_cpu_seconds r in
  let wall = phase_wall_seconds r in
  if wall <= 0.0 || cpu <= 0.0 then 1.0 else cpu /. wall

type build = {
  image : Image.t;
  objects : Objfile.t list;
  report : report;
  manifest : Probe.manifest option;
}

exception Compile_error of string

let error fmt = Format.kasprintf (fun s -> raise (Compile_error s)) fmt

let frontend_one { name; text } =
  Obs.with_span ~cat:"frontend" name @@ fun () ->
  match Frontend.compile ~module_name:name text with
  | Ok m -> (
    match Verify.check_module m with
    | [] -> m
    | issues ->
      error "@[<v>IL verification failed in %s:@,%a@]" name
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut Verify.pp_issue)
        issues)
  | Error errs ->
    error "@[<v>%a@]"
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut Frontend.pp_error)
      errs

(* Duplicate module names would collide in every downstream table
   (symbols, loader pools, object files); reject them up front. *)
let check_distinct sources =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun { name; _ } ->
      if Hashtbl.mem seen name then
        error "duplicate module name %s among the sources" name
      else Hashtbl.replace seen name ())
    sources

(* Per-module lowering is independent; Parwork keeps result order
   and raises the first error by input order, like List.map.  Nothing
   to lower (a null rebuild) starts no pool. *)
let lower_each ~jobs sources =
  if jobs > 1 && sources <> [] then
    Parwork.with_pool ~jobs (fun pool -> Parwork.map pool frontend_one sources)
  else List.map frontend_one sources

(* The whole-program check (linkage, call arities) of a program whose
   every module is IL.  [verified] modules were lowered by this build,
   and [frontend_one] has run their local checks. *)
let check_program ~verified modules =
  match Verify.check_program ~verified modules with
  | [] -> ()
  | issues ->
    error "@[<v>IL verification failed:@,%a@]"
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut Verify.pp_issue)
      issues

let frontend ?(jobs = 1) sources =
  check_distinct sources;
  let modules = lower_each ~jobs sources in
  check_program ~verified:(fun _ -> true) modules;
  modules

(* Dynamic call weights for routine clustering, from annotated IL. *)
let cluster_weights modules =
  let weights = Hashtbl.create 256 in
  List.iter
    (fun (m : Ilmod.t) ->
      List.iter
        (fun (f : Func.t) ->
          List.iter
            (fun (_, (c : Instr.call)) ->
              if
                (not (Intrinsics.is_intrinsic c.Instr.callee))
                && c.Instr.call_count > 0.0
              then begin
                let key = (f.Func.name, c.Instr.callee) in
                Hashtbl.replace weights key
                  (c.Instr.call_count
                  +. Option.value ~default:0.0 (Hashtbl.find_opt weights key))
              end)
            (Func.site_calls f))
        m.Ilmod.funcs)
    modules;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) weights []
  |> List.sort compare

let all_func_names modules =
  List.concat_map
    (fun (m : Ilmod.t) -> List.map (fun f -> f.Func.name) m.Ilmod.funcs)
    modules

module Names = Set.Make (String)

(* Scan modules outside the CMO set for references into it: the names
   they call and the globals they store to. *)
let external_context outside_modules =
  let called = ref Names.empty in
  let stored = ref Names.empty in
  List.iter
    (fun (m : Ilmod.t) ->
      List.iter
        (fun (f : Func.t) ->
          List.iter
            (fun (b : Func.block) ->
              List.iter
                (fun i ->
                  match i with
                  | Instr.Call { callee; _ } -> called := Names.add callee !called
                  | Instr.Store ({ Instr.base; _ }, _) ->
                    stored := Names.add base !stored
                  | Instr.Move _ | Instr.Unop _ | Instr.Binop _ | Instr.Load _
                  | Instr.Probe _ -> ())
                b.Func.instrs)
            f.Func.blocks)
        m.Ilmod.funcs)
    outside_modules;
  (!called, !stored)

let src_lines modules =
  List.fold_left (fun acc m -> acc + Ilmod.src_lines m) 0 modules

let render_violations vs =
  Format.asprintf "@[<v>IL verification failed:@,%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Ilcheck.pp_violation)
    vs

(* Trace summary for the report, captured while the sink is live. *)
let obs_summary () = if Obs.enabled () then Some (Obs.summary ()) else None

(* --- stages ------------------------------------------------------- *)

type clock = { cpu : float; wall : float }

let no_clock = { cpu = 0.0; wall = 0.0 }

(* The one stage timer: the [~cat:"stage"] span [name] around [f], and
   the cpu seconds (process-wide, every domain) and wall seconds [f]
   took — what the report books under that stage. *)
let stage name f =
  let cpu0 = Sys.time () in
  let wall0 = Unix.gettimeofday () in
  let v = Obs.with_span ~cat:"stage" name f in
  (v, { cpu = Sys.time () -. cpu0; wall = Unix.gettimeofday () -. wall0 })

(* The between-phase verifier ([Options.check]) as an optimizer hook,
   [None] when checking is off so the optimizers skip it entirely.  Its
   linkage environment is a snapshot of [modules], deferred (a snapshot
   costs a pass over the program) and left out when [modules] are not
   the whole program ([closed = false]): linkage then goes unchecked. *)
let checker (options : Options.t) ~closed modules =
  if not options.Options.check then None
  else begin
    let env =
      if closed then
        Some (Parwork.memo_locked (fun () -> Ilcheck.env_of_modules modules))
      else None
    in
    Some
      (fun ~phase f ->
        Ilcheck.check_func_exn ?env:(Option.map (fun e -> e ()) env) ~phase f)
  end

(* --- wpa: the serial whole-program step --------------------------- *)

(* The module-artifact lookups of one build (local store, then remote
   cache), with the running traffic the report shows. *)
type lookups = {
  store : Store.t;
  remote : Distwork.remote option;
  mutable usage : cache_usage;
}

let count lk series bump =
  Obs.tick "cache.module" series 1;
  lk.usage <- bump lk.usage

(* Decode a stored module artifact; anything unexpected — corrupt
   bytes, a key collision surfacing as the wrong module — is a miss. *)
let decode_artifact bytes mname =
  match Ilcodec.decode_module bytes with
  | m when m.Ilmod.mname = mname -> Some m
  | _ -> None
  | exception Cmo_support.Codec.Reader.Corrupt _ -> None

(* On a local non-hit, consult the remote cache; a validated remote
   artifact is adopted into the local store so the next build hits
   locally.  Lookups happen only on the serial WPA path, so their
   effect on local store bytes is independent of [jobs]. *)
let fetch lk key mname =
  match
    Option.bind (Store.find lk.store key) (fun bytes ->
        decode_artifact bytes mname)
  with
  | Some m ->
    count lk "hits" (fun u -> { u with hits = u.hits + 1 });
    Some m
  | None ->
    let adopted =
      Option.bind lk.remote (fun r ->
          match
            Option.bind (r.Distwork.remote_get key) (fun bytes ->
                Option.map (fun m -> (m, bytes)) (decode_artifact bytes mname))
          with
          | Some (m, bytes) ->
            Store.add lk.store key bytes;
            count lk "remote_hits" (fun u ->
                { u with remote_hits = u.remote_hits + 1 });
            Some m
          | None ->
            count lk "remote_misses" (fun u ->
                { u with remote_misses = u.remote_misses + 1 });
            None)
    in
    if Option.is_none adopted then
      count lk "misses" (fun u -> { u with misses = u.misses + 1 });
    adopted

(* Persist an artifact and publish it to the remote cache, whose own
   wrapper absorbs failures (a dead daemon must not fail the build). *)
let publish lk key bytes =
  Store.add lk.store key bytes;
  Option.iter (fun r -> r.Distwork.remote_put key bytes) lk.remote

type component = { members : Ilmod.t list; rooted : bool }

type work =
  | Cached  (** Every artifact current: HLO does not run. *)
  | Whole of Ilmod.t list
  | Components of component list

type cmo = {
  order : string list;  (* the CMO set's module names, in link order *)
  work : work;
  fetched : (string, Ilmod.t) Hashtbl.t;  (* artifacts the store served *)
  keys : (string, string) Hashtbl.t;  (* store key per module; caching only *)
  called : Names.t;  (* the external context *)
  stored : Names.t;
  outside_env : unit -> Ilcheck.env;
  dist : Distwork.pool option;
}

type plan = {
  options : Options.t;
  mem : Memstats.t;
  naim_repo : Cmo_naim.Repository.t option;
  lookups : lookups option;
  selection : Selectivity.t option;
  cmo_lines : int;
  warm_lines : int;
  cold_lines : int;
  outside : Ilmod.t list;  (* done: optimized at the default level *)
  cmo : cmo option;  (* link-time CMO still to run *)
}

(* Profile counts from [profile] under +P; cleared otherwise. *)
let annotate ?profile (options : Options.t) modules =
  match (options.Options.pbo, profile) with
  | true, Some db -> ignore (Correlate.annotate db modules)
  | true, None | false, _ -> Correlate.clear modules

let optimize_default ~mem ?check (m : Ilmod.t) =
  List.iter (fun f -> ignore (Phase.optimize_func ~mem ?check f)) m.Ilmod.funcs

(* The CMO set and the modules outside it. *)
let choose_cmo_set (options : Options.t) modules =
  let among names =
    List.partition (fun (m : Ilmod.t) -> List.mem m.Ilmod.mname names) modules
  in
  match (options.Options.cmo_modules, options.Options.selectivity) with
  | Some names, _ ->
    (* Explicit set: the bug-isolation driver's reduction axis. *)
    (None, among names)
  | None, Some percent when options.Options.pbo ->
    let sel = Selectivity.select ~percent modules in
    (Some sel, among sel.Selectivity.cmo_modules)
  | None, (Some _ | None) -> (None, (modules, []))

(* WHOPR-style distribution: one worker pool per build — remote
   [--workers] endpoints dialed on demand, local processes spawned on
   demand.  A missing worker binary (with no endpoints) degrades the
   whole build to in-process execution, never an error — [dist] is a
   behaviour-preserving knob like [jobs]. *)
let dist_pool (options : Options.t) =
  if not options.Options.dist then None
  else
    match
      Distwork.create_pool ~jobs:options.Options.jobs
        ~workers:options.Options.workers
        ?timeout_s:options.Options.dist_timeout ()
    with
    | pool -> Some pool
    | exception Distwork.Unavailable msg ->
      Log.warn (fun m -> m "dist: %s; building in-process" msg);
      None

(* The key of each module: the canonical options and selection, and its
   component's (name, IL digest) pairs plus the slice of the external
   context that component can observe — external callers pin IPA
   argument lattices and keep functions alive; external stores block
   const-global folding. *)
let cache_keys (options : Options.t) ~selection ~part ~component_of ~mod_funcs
    ~called ~stored cmo_set =
  let il_fp = Hashtbl.create 16 in
  List.iter
    (fun (m : Ilmod.t) ->
      Hashtbl.replace il_fp m.Ilmod.mname
        (Fingerprint.of_strings [ Ilcodec.encode_module m ]))
    cmo_set;
  let opt_fp = Options.cache_fingerprint options in
  let sel_fp =
    match selection with
    | None -> "nosel"
    | Some sel ->
      Fingerprint.of_strings
        (("sel" :: sel.Selectivity.cmo_modules)
        @ ("|" :: sel.Selectivity.hot_functions))
  in
  let comp_parts_memo = Hashtbl.create 8 in
  let component_parts comp =
    let head = List.hd comp in
    match Hashtbl.find_opt comp_parts_memo head with
    | Some parts -> parts
    | None ->
      let ext_called =
        List.concat_map
          (fun n ->
            Option.value ~default:[] (Hashtbl.find_opt mod_funcs n)
            |> List.filter_map (fun (fname, _) ->
                   if Names.mem fname called then Some fname else None))
          comp
        |> List.sort String.compare
      in
      let ext_stored =
        List.concat_map (Invalidate.global_refs part) comp
        |> List.sort_uniq String.compare
        |> List.filter (fun g -> Names.mem g stored)
      in
      let parts =
        List.concat_map
          (fun n -> [ n; Option.value ~default:"" (Hashtbl.find_opt il_fp n) ])
          comp
        @ ("|called" :: ext_called)
        @ ("|stored" :: ext_stored)
      in
      Hashtbl.replace comp_parts_memo head parts;
      parts
  in
  let keys = Hashtbl.create 16 in
  List.iter
    (fun (m : Ilmod.t) ->
      let name = m.Ilmod.mname in
      Hashtbl.replace keys name
        (Fingerprint.of_strings
           ("cmo1" :: opt_fp :: sel_fp :: name :: "|comp"
           :: component_parts (component_of name))))
    cmo_set;
  keys

(* Plan link-time CMO over [cmo_set]: the external context, the
   partition into components, and — with a store — the cache keys and
   the artifacts already current. *)
let plan_cmo plan ~selection cmo_set =
  let options = plan.options in
  let called, stored = external_context plan.outside in
  let order = List.map (fun (m : Ilmod.t) -> m.Ilmod.mname) cmo_set in
  let by_name = Hashtbl.create 16 in
  (* Snapshot function lists before any loader registration empties
     the modules. *)
  let mod_funcs = Hashtbl.create 16 in
  List.iter
    (fun (m : Ilmod.t) ->
      Hashtbl.replace by_name m.Ilmod.mname m;
      Hashtbl.replace mod_funcs m.Ilmod.mname
        (List.map (fun (f : Func.t) -> (f.Func.name, f.Func.linkage)) m.Ilmod.funcs))
    cmo_set;
  let has_root names =
    List.exists
      (fun n ->
        List.exists
          (fun (fname, linkage) ->
            fname = "main" || linkage = Func.Exported || Names.mem fname called)
          (Option.value ~default:[] (Hashtbl.find_opt mod_funcs n)))
      names
  in
  (* Per-component treatment (caching and parallelism alike) is exact
     only when every global decision decomposes by component:
     profile-guided cloning uses program-wide counters and name
     allocation, and the bug-isolation operation limits are
     program-wide budgets, so those modes fall back to whole-set,
     sequential runs.  Likewise the degenerate rootless program, where
     IPA's keep-everything guard is not component-local. *)
  let decomposable =
    (not options.Options.pbo)
    && options.Options.inline_limit = None
    && options.Options.rewrite_limit = None
    && has_root order
  in
  let component names =
    { members = List.map (Hashtbl.find by_name) names; rooted = has_root names }
  in
  let fetched = Hashtbl.create 16 in
  let keys, work, dist =
    match plan.lookups with
    | None ->
      (* The same partition as cache invalidation is the unit of
         parallel and distributed link-time CMO (the WHOPR LTRANS
         analogy). *)
      let dist = dist_pool options in
      if decomposable && (options.Options.jobs > 1 || Option.is_some dist) then
        let part = Invalidate.compute cmo_set in
        ( Hashtbl.create 1,
          Components (List.map component (Invalidate.components part)),
          dist )
      else (Hashtbl.create 1, Whole cmo_set, dist)
    | Some lk ->
      let part = Invalidate.compute cmo_set in
      let component_of name =
        if decomposable then Invalidate.component part name else order
      in
      let keys =
        cache_keys options ~selection ~part ~component_of ~mod_funcs ~called
          ~stored cmo_set
      in
      let missing =
        List.filter
          (fun name ->
            match fetch lk (Hashtbl.find keys name) name with
            | Some cached ->
              Hashtbl.replace fetched name cached;
              false
            | None -> true)
          order
      in
      let rerun =
        if missing = [] then []
        else if decomposable then Invalidate.closure part ~changed:missing
        else order
      in
      lk.usage <-
        {
          lk.usage with
          cmo_cached = List.filter (fun n -> not (List.mem n rerun)) order;
          cmo_reoptimized = rerun;
        };
      if missing = [] then (keys, Cached, None)
      else if decomposable then
        (* Exactly the components holding a stale module rerun; every
           fetch above already happened, so the transactions' view of
           the store is fixed before any worker starts. *)
        ( keys,
          Components
            (Invalidate.components part
            |> List.filter (List.exists (fun n -> List.mem n missing))
            |> List.map component),
          dist_pool options )
      else (keys, Whole cmo_set, dist_pool options)
  in
  {
    order;
    work;
    fetched;
    keys;
    called;
    stored;
    (* What link-time CMO may reference beyond its own loader: the
       non-CMO modules' functions and globals, snapshot once and
       shared read-only by component workers. *)
    outside_env =
      Parwork.memo_locked (fun () -> Ilcheck.env_of_modules plan.outside);
    dist;
  }

(* The paper, section 5: "The remaining modules bypass HLO entirely,
   and are optimized at the default optimization level using PBO."
   Under the tiered mode (the section-8 multi-layered future work),
   modules the profile never saw execute also skip the default-level
   scalar optimization.  With a store, the +O2 result of a module is
   an artifact keyed on its annotated IL alone. *)
let plan_o4 plan ?check modules =
  let options = plan.options in
  let selection, (cmo_set, outside) = choose_cmo_set options modules in
  let is_cold (m : Ilmod.t) =
    options.Options.tiered
    && List.for_all
         (fun (f : Func.t) ->
           List.for_all (fun (b : Func.block) -> b.Func.freq = 0.0) f.Func.blocks)
         m.Ilmod.funcs
  in
  let cold, warm = List.partition is_cold outside in
  let optimize_outside (m : Ilmod.t) =
    let optimize () = optimize_default ~mem:plan.mem ?check m in
    match plan.lookups with
    | _ when is_cold m -> m
    | None ->
      optimize ();
      m
    | Some lk -> (
      let key = Fingerprint.of_strings [ "o2out1"; Ilcodec.encode_module m ] in
      match fetch lk key m.Ilmod.mname with
      | Some cached -> cached
      | None ->
        optimize ();
        publish lk key (Ilcodec.encode_module m);
        m)
  in
  let plan =
    {
      plan with
      selection;
      cmo_lines = src_lines cmo_set;
      warm_lines = src_lines warm;
      cold_lines = src_lines cold;
      outside = List.map optimize_outside outside;
    }
  in
  if cmo_set = [] then plan
  else { plan with cmo = Some (plan_cmo plan ~selection cmo_set) }

let wpa ?profile ?cache ?naim_repo ?remote ?(closed = true) ~mem
    (options : Options.t) modules =
  annotate ?profile options modules;
  (* The whole-program view as the frontends delivered it: valid for
     every check until HLO starts adding and removing functions. *)
  let check = checker options ~closed modules in
  let plan =
    {
      options;
      mem;
      naim_repo;
      lookups =
        Option.map
          (fun store ->
            {
              store;
              remote;
              usage =
                {
                  hits = 0;
                  misses = 0;
                  remote_hits = 0;
                  remote_misses = 0;
                  cmo_cached = [];
                  cmo_reoptimized = [];
                };
            })
          cache;
      selection = None;
      cmo_lines = 0;
      warm_lines = 0;
      cold_lines = 0;
      outside = modules;
      cmo = None;
    }
  in
  match options.Options.level with
  | Options.O1 -> plan
  | Options.O2 ->
    List.iter (optimize_default ~mem ?check) modules;
    plan
  | Options.O4 -> plan_o4 plan ?check modules

(* --- optimize: run the plan --------------------------------------- *)

type placed = {
  optimized : (Ilmod.t * string option) list;
      (* With a worker process's own encoding of each module, stored
         verbatim so the bytes that crossed the wire define the
         artifact, with no parent-side re-encode in between. *)
  stats : (Hlo.report * Loader.stats) option;  (* None: HLO did not run *)
  txn : Store.txn option;  (* for the caller to commit *)
}

(* Run link-time CMO over [subset] (the whole set, or one component)
   where the plan places it: on a pooled [cmoc-worker] process when the
   build has workers, else in the calling domain.  Both run
   {!Distwork.optimize_subset} on the same inputs, which is what keeps
   distribution byte-invisible.  The external context is always the
   non-CMO modules: components are closed under calls and shared
   globals, so modules of other components cannot observe this subset.
   With [~txn:true] and a store, the phase cache works in a fresh
   store transaction; otherwise it uses the store directly.

   This is the one recovery from a lost worker: its transaction holds a
   partial op log that must never commit, so it is abandoned and the
   subset redone locally on a fresh one, whose log then matches the
   oracle's exactly. *)
let place plan cmo ~txn ~mem subset =
  let begin_txn () =
    if txn then Option.map (fun lk -> Store.txn_begin lk.store) plan.lookups
    else None
  in
  let phase_cache txn =
    match (txn, plan.lookups) with
    | Some txn, _ ->
      Some { Hlo.pc_find = Store.txn_find txn; pc_add = Store.txn_add txn }
    | None, Some lk -> Some (Hlo.store_phase_cache lk.store)
    | None, None -> None
  in
  let local txn =
    let optimized, report, lstats =
      Distwork.optimize_subset ?phase_cache:(phase_cache txn)
        ?naim_repo:plan.naim_repo
        ?hot_filter:(Option.map Selectivity.is_hot_function plan.selection)
        ~check_base:cmo.outside_env ~options:plan.options
        ~externally_called:(fun n -> Names.mem n cmo.called)
        ~externally_stored:(fun n -> Names.mem n cmo.stored)
        ~mem subset
    in
    {
      optimized = List.map (fun m -> (m, None)) optimized;
      stats = Some (report, lstats);
      txn;
    }
  in
  let txn = begin_txn () in
  match cmo.dist with
  | None -> local txn
  | Some pool -> (
    let job =
      {
        Distwork.job_options = plan.options;
        job_modules = List.map Ilcodec.encode_module subset;
        job_called = Names.elements cmo.called;
        job_stored = Names.elements cmo.stored;
        job_hot =
          Option.map (fun sel -> sel.Selectivity.hot_functions) plan.selection;
        job_phase_cache = false (* run_job decides *);
      }
    in
    match Distwork.run_job pool ?phase_cache:(phase_cache txn) job with
    | done_ ->
      Memstats.merge mem (Distwork.memstats_of_summary done_.Distwork.done_mem);
      {
        optimized =
          List.map
            (fun bytes -> (Ilcodec.decode_module bytes, Some bytes))
            done_.Distwork.done_modules;
        stats = Some (done_.Distwork.done_report, done_.Distwork.done_lstats);
        txn;
      }
    | exception Distwork.Worker_lost ->
      Distwork.with_local_slot pool (fun () -> local (begin_txn ())))

(* Per-component execution: each component runs in its own loader and
   accountant (and store transaction when caching) on the worker pool.
   Accountants and transactions merge in deterministic component order
   after the join, so every artifact — and every cache byte — is
   independent of [jobs].  Whenever a store is attached this is the
   code path at every job count, j=1 included: the transaction logs,
   not the interleaving, decide what the store sees.  On a wide pool
   the largest components (by source lines) start first, so the
   longest job does not start last.  With a worker pool the lanes are
   systhreads: a job on a worker only waits on its socket here, and
   extra domains would only add stop-the-world collections. *)
let run_components plan cmo comps =
  (* [jobs] lanes, or one job in flight per live fleet endpoint when
     that is more; never more lanes than components. *)
  let fleet = match cmo.dist with Some pool -> Distwork.width pool | None -> 0 in
  let width =
    max 1 (min (List.length comps) (max plan.options.Options.jobs fleet))
  in
  let run c =
    Obs.with_span ~cat:"component" (List.hd c.members).Ilmod.mname
    @@ fun () ->
    let wmem = Memstats.create () in
    if c.rooted then (wmem, place plan cmo ~txn:true ~mem:wmem c.members)
    else
      (* A rootless component (while roots exist elsewhere): the
         whole-set run's IPA removes every one of its functions as
         unreachable, so the optimized form is just the empty-bodied
         modules — running HLO here would instead hit IPA's
         keep-everything guard. *)
      ( wmem,
        {
          optimized =
            List.map
              (fun (m : Ilmod.t) -> ({ m with Ilmod.funcs = [] }, None))
              c.members;
          stats = None;
          txn = None;
        } )
  in
  let placed =
    Parwork.with_pool ~threads:(Option.is_some cmo.dist) ~jobs:width
      (fun pool ->
        let indexed = List.mapi (fun i c -> (i, src_lines c.members, c)) comps in
        (if width = 1 then indexed
         else List.stable_sort (fun (_, a, _) (_, b, _) -> compare b a) indexed)
        |> List.map (fun (i, _, c) -> (i, Parwork.submit pool (fun () -> run c)))
        |> List.sort (fun (i, _) (j, _) -> compare i j)
        |> List.map (fun (_, f) -> Parwork.await f))
  in
  ( List.map
      (fun (wmem, p) ->
        Memstats.merge plan.mem wmem;
        Option.iter Store.txn_commit p.txn;
        p)
      placed,
    width )

(* The optimized modules, HLO's stats, and how many partitions ran at
   once. *)
let optimize plan =
  match plan.cmo with
  | None -> (plan.outside, None, 1)
  | Some cmo ->
    Fun.protect ~finally:(fun () -> Option.iter Distwork.close_pool cmo.dist)
    @@ fun () ->
    let placed, width =
      match cmo.work with
      | Cached -> ([], 1)
      | Whole subset ->
        (* Program-wide decisions — profile-guided cloning counters,
           the bug-isolation operation budgets, IPA's rootless
           keep-everything guard — are made once over the entire set,
           so distribution ships it as a single job to one worker,
           under a transaction that a lost worker never commits. *)
        let p =
          place plan cmo ~txn:(Option.is_some cmo.dist) ~mem:plan.mem subset
        in
        Option.iter Store.txn_commit p.txn;
        ([ p ], 1)
      | Components comps -> run_components plan cmo comps
    in
    let by_name = Hashtbl.create 16 in
    List.iter
      (fun p ->
        List.iter
          (fun ((m : Ilmod.t), wire) ->
            Hashtbl.replace by_name m.Ilmod.mname m;
            match (plan.lookups, Hashtbl.find_opt cmo.keys m.Ilmod.mname) with
            | Some lk, Some key ->
              publish lk key
                (match wire with
                | Some bytes -> bytes
                | None -> Ilcodec.encode_module m)
            | _ -> ())
          p.optimized)
      placed;
    let stats =
      List.fold_left
        (fun acc p ->
          match (acc, p.stats) with
          | Some (r, l), Some (r', l') ->
            Some (Hlo.merge_reports r r', Loader.merge_stats l l')
          | None, s | s, None -> s)
        None placed
    in
    ( List.map
        (fun n ->
          match Hashtbl.find_opt by_name n with
          | Some m -> m
          | None -> Hashtbl.find cmo.fetched n)
        cmo.order
      @ plan.outside,
      stats,
      width )

(* --- llo and link ------------------------------------------------- *)

(* Code generation: per-module and independent.  Parallel workers
   carry their own accountant, merged in module order after the join,
   so objects, stats and modeled peaks match the sequential run. *)
let llo ?(closed = true) ~mem (options : Options.t) modules =
  let layout =
    options.Options.pbo
    && options.Options.level <> Options.O1
    && not options.Options.instrument
  in
  (* Post-CMO view: clones present, IPA-removed routines gone — a
     reference that dangles here would dangle at link time too. *)
  let check = checker options ~closed modules in
  let compile mem (m : Ilmod.t) =
    let codes, stats = Llo.compile_module ~mem ?check ~layout m in
    ( Objfile.of_code ~module_name:m.Ilmod.mname ~globals:m.Ilmod.globals
        ~source_digest:"" codes,
      stats )
  in
  let jobs = max 1 options.Options.jobs in
  let results =
    if jobs > 1 then
      Parwork.with_pool ~jobs (fun pool ->
          Parwork.map pool
            (fun m ->
              let wmem = Memstats.create () in
              (compile wmem m, Some wmem))
            modules)
    else List.map (fun m -> (compile mem m, None)) modules
  in
  let stats, objects =
    List.fold_left_map
      (fun acc ((obj, stats), wmem) ->
        Option.iter (Memstats.merge mem) wmem;
        (Llo.add_stats acc stats, obj))
      Llo.zero_stats results
  in
  (objects, stats)

let link ?cluster objects =
  let routine_order =
    match Option.map (fun ms -> (ms, cluster_weights ms)) cluster with
    | None | Some (_, []) -> None
    | Some (modules, weights) ->
      Some
        (Obs.with_span ~cat:"link" "cluster" (fun () ->
             Cluster.order ~names:(all_func_names modules) ~weights))
  in
  match Linker.link ?routine_order objects with
  | Ok image -> image
  | Error errs ->
    error "@[<v>link failed:@,%a@]"
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut Linker.pp_error)
      errs

let make_report ?(frontend = no_clock) ?(hlo = no_clock) ~llo ~link ?plan
    ?hlo_stats ~hlo_width ~mem ~lines ~llo_stats (options : Options.t) =
  let of_plan f default = match plan with Some p -> f p | None -> default in
  {
    options;
    hlo = Option.map fst hlo_stats;
    loader_stats = Option.map snd hlo_stats;
    mem_peak = Memstats.peak mem;
    mem_peak_hlo = Memstats.peak_hlo mem;
    selection = of_plan (fun p -> p.selection) None;
    llo = llo_stats;
    frontend_seconds = frontend.cpu;
    hlo_seconds = hlo.cpu;
    llo_seconds = llo.cpu;
    link_seconds = link.cpu;
    frontend_wall_seconds = frontend.wall;
    hlo_wall_seconds = hlo.wall;
    llo_wall_seconds = llo.wall;
    (* The widest pool a stage ran: [jobs] domains for the frontend
       and codegen, or HLO's jobs in flight on a fleet. *)
    workers_used = max hlo_width (max 1 options.Options.jobs);
    total_lines = lines;
    cmo_lines = of_plan (fun p -> p.cmo_lines) 0;
    warm_lines = of_plan (fun p -> p.warm_lines) 0;
    cold_lines = of_plan (fun p -> p.cold_lines) 0;
    cache = of_plan (fun p -> Option.map (fun lk -> lk.usage) p.lookups) None;
    obs = obs_summary ();
  }

(* The one stage chain every build runs.  [units] are the frontend's
   output in source order: a module to compile, or a code object a
   workspace already holds for it.  Reused objects make the compiled
   modules a part of the program ([closed = false]): the verifier then
   leaves linkage to the link, the report books only the lines this
   build compiled, and the link takes every object in source order.
   [save] sees each code object this build generated. *)
let chain ?profile ?cache ?naim_repo ?remote ?frontend ?save
    (options : Options.t) units =
  try
    let mem = Memstats.create () in
    let modules = List.filter_map Either.find_left units in
    let closed = List.for_all Either.is_left units in
    let lines = src_lines modules in
    let manifest, plan, (optimized, hlo_stats, hlo_width), hlo =
      if options.Options.instrument then begin
        (* +I: probes in, optimization suppressed. *)
        let instrumented, manifest = Probe.instrument modules in
        (Some manifest, None, (instrumented, None, 1), None)
      end
      else begin
        let (plan, optimized), hlo =
          stage "hlo" (fun () ->
              let plan =
                wpa ?profile ?cache ?naim_repo ?remote ~closed ~mem options
                  modules
              in
              (plan, optimize plan))
        in
        (None, Some plan, optimized, Some hlo)
      end
    in
    let (objects, llo_stats), llo_clock =
      stage "llo" (fun () ->
          let objects, stats = llo ~closed ~mem options optimized in
          Option.iter (fun save -> List.iter save objects) save;
          (objects, stats))
    in
    let objects =
      if closed then objects
      else begin
        let built = Hashtbl.create 16 in
        List.iter
          (fun (o : Objfile.t) -> Hashtbl.add built o.Objfile.module_name o)
          objects;
        List.map
          (Either.fold ~right:Fun.id ~left:(fun (m : Ilmod.t) ->
               Hashtbl.find built m.Ilmod.mname))
          units
      end
    in
    (* Link, clustering routines when profiled. *)
    let image, link_clock =
      stage "link" (fun () ->
          link
            ?cluster:
              (if options.Options.pbo && not options.Options.instrument then
                 Some optimized
               else None)
            objects)
    in
    let report =
      make_report ?frontend ?hlo ~llo:llo_clock ~link:link_clock ?plan
        ?hlo_stats ~hlo_width ~mem ~lines ~llo_stats options
    in
    Log.info (fun m ->
        m "%s: hlo %.3fs, llo %.3fs, link %.3fs; cmo %d/%d lines, %d instrs"
          (Options.to_string options) report.hlo_seconds report.llo_seconds
          report.link_seconds report.cmo_lines lines
          (Array.length image.Image.code));
    { image; objects; manifest; report }
  with Ilcheck.Violation vs -> error "%s" (render_violations vs)

let compile_modules ?profile ?cache ?naim_repo ?remote options modules =
  chain ?profile ?cache ?naim_repo ?remote options
    (List.map Either.left modules)

(* The trace lifecycle lives with [compile], which owns every whole
   build: start the sink, run the build, write the file, stop.  A
   failed build stops the sink without writing — a partial trace with
   dangling spans would mislead more than it helps. *)
let with_tracing (options : Options.t) f =
  match options.Options.trace with
  | None -> f ()
  | Some path -> (
    Obs.start ();
    match f () with
    | v ->
      (try Fsio.atomic_write path (Obs.export ())
       with Sys_error m ->
         Obs.tick "obs" "export_errors" 1;
         Log.warn (fun f -> f "trace not written to %s (%s)" path m));
      Obs.stop ();
      v
    | exception e ->
      Obs.stop ();
      raise e)

type objects = {
  find : il:bool -> source -> Objfile.t option;
  save : source -> Objfile.t -> unit;
}

(* The link needs IL when CMO runs there (+O4) or when it clusters
   routines by profiled call weights (+P); otherwise code suffices. *)
let il_objects (options : Options.t) =
  options.Options.level = Options.O4 || options.Options.pbo

(* The frontend stage.  Without [objects] it is {!frontend}.  With a
   workspace's objects, a source whose object is current is not
   lowered: an IL object hands the chain its module, a code object
   goes straight to the link.  The rest are lowered on [jobs] domains
   and, when the link needs IL, saved at once as IL objects.  Modules
   are verified one by one, as separately compiled units, and the
   program as a whole when every unit is IL — always when the link
   needs IL, and whenever nothing was reused.  A reused code object
   carries no arities, so a program with one is checked only at the
   link. *)
let lower ?objects (options : Options.t) sources =
  let jobs = max 1 options.Options.jobs in
  match objects with
  | None -> List.map Either.left (frontend ~jobs sources)
  | Some objs ->
    check_distinct sources;
    let il = il_objects options in
    let found = List.map (fun src -> (src, objs.find ~il src)) sources in
    let stale =
      List.filter_map
        (fun (src, obj) -> if Option.is_none obj then Some src else None)
        found
    in
    let lowered = Hashtbl.create 16 in
    List.iter2
      (fun src m -> Hashtbl.replace lowered src.name m)
      stale (lower_each ~jobs stale);
    let units =
      List.map
        (fun (src, obj) ->
          match obj with
          | Some obj -> (
            Obs.instant ~cat:"frontend" src.name;
            match obj.Objfile.payload with
            | Objfile.Il m -> Either.Left m
            | Objfile.Code _ -> Either.Right obj)
          | None ->
            let m = Hashtbl.find lowered src.name in
            if il then objs.save src (Objfile.of_il ~source_digest:"" m);
            Either.Left m)
        found
    in
    if List.for_all Either.is_left units then begin
      let verified (m : Ilmod.t) =
        match Hashtbl.find_opt lowered m.Ilmod.mname with
        | Some lowered -> lowered == m
        | None -> false
      in
      check_program ~verified (List.filter_map Either.find_left units)
    end;
    units

let compile ?profile ?cache ?naim_repo ?remote ?objects options sources =
  with_tracing options @@ fun () ->
  let units, frontend =
    stage "frontend" (fun () -> lower ?objects options sources)
  in
  let save =
    Option.bind objects (fun objs ->
        if il_objects options then None
        else
          Some
            (fun (o : Objfile.t) ->
              let named s = s.name = o.Objfile.module_name in
              objs.save (List.find named sources) o))
  in
  chain ?profile ?cache ?naim_repo ?remote ~frontend ?save options units

let run ?input ?fuel ?attribute build = Vm.run ?input ?fuel ?attribute build.image

let train ?(inputs = [ [||] ]) sources =
  let build = compile Options.instrumented sources in
  let manifest =
    match build.manifest with
    | Some m -> m
    | None -> error "instrumented build produced no manifest"
  in
  let db = Db.create () in
  List.iter
    (fun input ->
      let outcome = Vm.run ~input build.image in
      Probe.record_counters manifest outcome.Vm.probes db)
    inputs;
  db

let pp_report ppf (r : report) =
  Format.fprintf ppf "@[<v>%s" (Options.to_string r.options);
  Format.fprintf ppf "@,lines: %d total, %d in CMO set%s" r.total_lines
    r.cmo_lines
    (if r.warm_lines + r.cold_lines > 0 then
       Printf.sprintf " (%d warm, %d cold)" r.warm_lines r.cold_lines
     else "");
  Format.fprintf ppf
    "@,time: frontend %.3fs, hlo %.3fs, llo %.3fs, link %.3fs"
    r.frontend_seconds r.hlo_seconds r.llo_seconds r.link_seconds;
  if r.workers_used > 1 then
    Format.fprintf ppf
      "@,parallel: %d workers; wall frontend %.3fs, hlo %.3fs, llo %.3fs; \
       speedup %.2fx"
      r.workers_used r.frontend_wall_seconds r.hlo_wall_seconds
      r.llo_wall_seconds (par_speedup r);
  Format.fprintf ppf "@,memory peak: %d bytes (hlo %d)" r.mem_peak r.mem_peak_hlo;
  Format.fprintf ppf "@,llo: %d routines, %d instrs, %d spills, %d peeps"
    r.llo.Llo.routines r.llo.Llo.mach_instrs r.llo.Llo.spilled_vregs
    r.llo.Llo.peephole_rewrites;
  (match r.hlo with
  | Some h -> Format.fprintf ppf "@,%a" Hlo.pp_report h
  | None -> ());
  (match r.cache with
  | Some c ->
    Format.fprintf ppf
      "@,cache: %d module hits, %d misses; %d cmo cached, %d re-optimized"
      c.hits c.misses
      (List.length c.cmo_cached)
      (List.length c.cmo_reoptimized);
    if c.remote_hits + c.remote_misses > 0 then
      Format.fprintf ppf "@,remote cache: %d hits, %d misses" c.remote_hits
        c.remote_misses
  | None -> ());
  (match r.selection with
  | Some s -> Format.fprintf ppf "@,%a" Selectivity.pp s
  | None -> ());
  (match r.obs with
  | Some s -> Format.fprintf ppf "@,%a" Obs.pp_summary s
  | None -> ());
  Format.fprintf ppf "@]"

(* Machine-readable report: every numeric field plus the derived
   cpu/wall aggregates, so downstream consumers (the bench tables,
   scripts diffing two builds) stop re-deriving arithmetic from the
   pretty-printer. *)
let report_to_json (r : report) =
  let num_i n = Json.Num (float_of_int n) in
  let opt f = function Some v -> f v | None -> Json.Null in
  Json.Obj
    [
      ("options", Json.Str (Options.to_string r.options));
      ( "lines",
        Json.Obj
          [
            ("total", num_i r.total_lines);
            ("cmo", num_i r.cmo_lines);
            ("warm", num_i r.warm_lines);
            ("cold", num_i r.cold_lines);
          ] );
      ( "cpu_seconds",
        Json.Obj
          [
            ("frontend", Json.Num r.frontend_seconds);
            ("hlo", Json.Num r.hlo_seconds);
            ("llo", Json.Num r.llo_seconds);
            ("link", Json.Num r.link_seconds);
            ("phases", Json.Num (phase_cpu_seconds r));
          ] );
      ( "wall_seconds",
        Json.Obj
          [
            ("frontend", Json.Num r.frontend_wall_seconds);
            ("hlo", Json.Num r.hlo_wall_seconds);
            ("llo", Json.Num r.llo_wall_seconds);
            ("phases", Json.Num (phase_wall_seconds r));
          ] );
      ("workers_used", num_i r.workers_used);
      ("par_speedup", Json.Num (par_speedup r));
      ( "memory",
        Json.Obj
          [ ("peak", num_i r.mem_peak); ("peak_hlo", num_i r.mem_peak_hlo) ]
      );
      ( "llo",
        Json.Obj
          [
            ("routines", num_i r.llo.Llo.routines);
            ("mach_instrs", num_i r.llo.Llo.mach_instrs);
            ("spilled_vregs", num_i r.llo.Llo.spilled_vregs);
            ("peephole_rewrites", num_i r.llo.Llo.peephole_rewrites);
            ("layout_changes", num_i r.llo.Llo.layout_changes);
          ] );
      ( "hlo",
        opt
          (fun (h : Hlo.report) ->
            Json.Obj
              [
                ("clones", num_i h.Hlo.clones);
                ("funcs_optimized", num_i h.Hlo.funcs_optimized);
                ("funcs_skipped", num_i h.Hlo.funcs_skipped);
                ("rewrites", num_i h.Hlo.rewrites);
                ( "inline_operations",
                  opt
                    (fun (s : Inline.stats) -> num_i s.Inline.operations)
                    h.Hlo.inline_stats );
              ])
          r.hlo );
      ( "loader",
        opt
          (fun (s : Loader.stats) ->
            Json.Obj
              [
                ("acquires", num_i s.Loader.acquires);
                ("cache_hits", num_i s.Loader.cache_hits);
                ("uncompactions", num_i s.Loader.uncompactions);
                ("repo_loads", num_i s.Loader.repo_loads);
                ("compactions", num_i s.Loader.compactions);
                ("offloads", num_i s.Loader.offloads);
                ("symtab_compactions", num_i s.Loader.symtab_compactions);
              ])
          r.loader_stats );
      ( "cache",
        opt
          (fun c ->
            Json.Obj
              [
                ("hits", num_i c.hits);
                ("misses", num_i c.misses);
                ("remote_hits", num_i c.remote_hits);
                ("remote_misses", num_i c.remote_misses);
                ( "cmo_cached",
                  Json.Arr (List.map (fun n -> Json.Str n) c.cmo_cached) );
                ( "cmo_reoptimized",
                  Json.Arr (List.map (fun n -> Json.Str n) c.cmo_reoptimized)
                );
              ])
          r.cache );
      ( "trace",
        opt
          (fun (s : Obs.summary) ->
            Json.Obj
              [
                ("events", num_i s.Obs.event_count);
                ("tracks", num_i s.Obs.track_count);
                ("open_spans", num_i s.Obs.open_spans);
                ( "counters",
                  Json.Obj
                    (List.map (fun (k, v) -> (k, Json.Num v)) s.Obs.counters)
                );
              ])
          r.obs );
    ]
