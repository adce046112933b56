module Ilmod = Cmo_il.Ilmod
module Correlate = Cmo_profile.Correlate
module Phase = Cmo_hlo.Phase
module Llo = Cmo_llo.Llo
module Objfile = Cmo_link.Objfile
module Linker = Cmo_link.Linker
module Memstats = Cmo_naim.Memstats
module Store = Cmo_cache.Store
module Fsio = Cmo_support.Fsio

let log_src = Logs.Src.create "cmo.buildsys" ~doc:"Incremental build system"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  dir : string;
  cache_enabled : bool;
  cache_dir : string;
  cache_capacity : int option;
}

let create ?(cache = true) ?cache_dir ?cache_capacity ~dir () =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Buildsys.create: %s is not a directory" dir);
  {
    dir;
    cache_enabled = cache;
    cache_dir =
      (match cache_dir with
      | Some d -> d
      | None -> Filename.concat dir ".cmo-cache");
    cache_capacity;
  }

let cache_dir t = t.cache_dir

type outcome = {
  build : Pipeline.build;
  recompiled : string list;
  reused : string list;
}

let object_path t name = Filename.concat t.dir (name ^ ".o")

let digest text = Digest.to_hex (Digest.string text)

let clean t =
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".o" then Fsio.remove (Filename.concat t.dir f))
    (Sys.readdir t.dir);
  Store.wipe ~dir:t.cache_dir

(* Compile one module to a code object (the non-CMO path). *)
let compile_code_object ?profile (options : Options.t) ~source_digest m =
  (match (options.Options.pbo, profile) with
  | true, Some db -> ignore (Correlate.annotate db [ m ])
  | true, None | false, _ -> Correlate.clear [ m ]);
  if options.Options.level = Options.O2 then
    List.iter (fun f -> ignore (Phase.optimize_func f)) m.Ilmod.funcs;
  let layout = options.Options.pbo && options.Options.level <> Options.O1 in
  let codes, _stats = Llo.compile_module ~layout m in
  {
    (Objfile.of_code ~module_name:m.Ilmod.mname ~globals:m.Ilmod.globals
       ~source_digest codes)
    with
    Objfile.source_digest = source_digest;
  }

let load_if_current t (s : Pipeline.source) =
  let path = object_path t s.Pipeline.name in
  if Sys.file_exists path then begin
    match Objfile.load path with
    | obj when obj.Objfile.source_digest = digest s.Pipeline.text ->
      (* An object built for a different mode is not current: CMO
         needs IL payloads, non-CMO needs code. *)
      Some obj
    | _ -> None
    (* An unreadable or corrupt object is stale, and only that —
       [Fsio.Crash] in particular must keep propagating, or a
       simulated power cut would degrade into a silent rebuild. *)
    | exception (Sys_error _ | Cmo_support.Codec.Reader.Corrupt _ | End_of_file)
      ->
      None
  end
  else None

(* ---- sessions ----

   A session is the warm state a build request runs against: the open
   artifact store and (optionally) a shared NAIM repository.  One-shot
   [build] opens a session, runs one request, closes it; the build
   server keeps one session open for its whole lifetime so every
   request after the first hits a warm store. *)

type session = {
  sconfig : t;
  mutable sstore : Store.t option;
  srepo : Cmo_naim.Repository.t option;
  mutable sclosed : bool;
}

let open_store t =
  if t.cache_enabled then
    Some (Store.open_ ?capacity:t.cache_capacity ~dir:t.cache_dir ())
  else None

let open_session ?(naim = false) t =
  let srepo =
    if naim then begin
      Fsio.mkdirs t.cache_dir;
      Some (Cmo_naim.Repository.create
              ~path:(Filename.concat t.cache_dir "naim.repo"))
    end
    else None
  in
  { sconfig = t; sstore = open_store t; srepo; sclosed = false }

let session_store s = s.sstore

let session_repo s = s.srepo

let reopen_store s =
  Option.iter (fun store -> try Store.close store with Sys_error _ -> ()) s.sstore;
  s.sstore <- open_store s.sconfig

let close_session s =
  if not s.sclosed then begin
    s.sclosed <- true;
    Option.iter Store.close s.sstore;
    s.sstore <- None;
    Option.iter Cmo_naim.Repository.close s.srepo
  end

let request ?profile ?remote s (options : Options.t) sources =
  if s.sclosed then invalid_arg "Buildsys.request: session is closed";
  let t = s.sconfig in
  if options.Options.instrument then
    raise
      (Pipeline.Compile_error
         "instrumented builds are in-memory only; use Pipeline.train");
  Pipeline.with_tracing options @@ fun () ->
  let want_il = options.Options.level = Options.O4 in
  let recompiled = ref [] in
  let reused = ref [] in
  let t0 = Sys.time () in
  let w0 = Unix.gettimeofday () in
  let objects =
    Cmo_obs.Obs.with_span ~cat:"stage" "frontend" @@ fun () ->
    List.map
      (fun (s : Pipeline.source) ->
        let current =
          match load_if_current t s with
          | Some obj when Objfile.is_il obj = want_il -> Some obj
          | Some _ | None -> None
        in
        match current with
        | Some obj ->
          reused := s.Pipeline.name :: !reused;
          Cmo_obs.Obs.instant ~cat:"frontend" s.Pipeline.name;
          obj
        | None ->
          recompiled := s.Pipeline.name :: !recompiled;
          let m = Pipeline.frontend_one s in
          let source_digest = digest s.Pipeline.text in
          let obj =
            if want_il then
              { (Objfile.of_il ~source_digest m) with Objfile.source_digest = source_digest }
            else compile_code_object ?profile options ~source_digest m
          in
          (try Objfile.save obj (object_path t s.Pipeline.name)
           with Sys_error m ->
             (* The object stays in memory for this build and is
                recompiled next time; not a failed build. *)
             Cmo_obs.Obs.tick "buildsys" "object_write_errors" 1;
             Log.warn (fun f ->
                 f "object for %s not saved (%s)" s.Pipeline.name m));
          obj)
      sources
  in
  let frontend_seconds = Sys.time () -. t0 in
  let frontend_wall_seconds = Unix.gettimeofday () -. w0 in
  let build_result =
    if want_il then begin
      (* CMO happens at link time, over the IL read back from disk. *)
      let modules =
        List.map
          (fun (o : Objfile.t) ->
            match o.Objfile.payload with
            | Objfile.Il m -> m
            | Objfile.Code _ ->
              raise
                (Pipeline.Compile_error
                   (Printf.sprintf "object %s lacks an IL payload"
                      o.Objfile.module_name)))
          objects
      in
      let b =
        match s.sstore with
        | Some store ->
          let b =
            Pipeline.compile_modules ?profile ~cache:store ?naim_repo:s.srepo
              ?remote options modules
          in
          (* Keep the warm store durable between requests: the session
             outlives this build, so flush now rather than at close. *)
          Store.flush store;
          b
        | None ->
          Pipeline.compile_modules ?profile ?naim_repo:s.srepo options modules
      in
      { b with
        Pipeline.report =
          { b.Pipeline.report with Pipeline.frontend_seconds; frontend_wall_seconds } }
    end
    else begin
      let image =
        Cmo_obs.Obs.with_span ~cat:"stage" "link" @@ fun () ->
        match Linker.link objects with
        | Ok image -> image
        | Error errs ->
          raise
            (Pipeline.Compile_error
               (Format.asprintf "@[<v>link failed:@,%a@]"
                  (Format.pp_print_list ~pp_sep:Format.pp_print_cut
                     Linker.pp_error)
                  errs))
      in
      let mem = Memstats.create () in
      {
        Pipeline.image;
        objects;
        manifest = None;
        report =
          {
            Pipeline.options;
            hlo = None;
            loader_stats = None;
            mem_peak = Memstats.peak mem;
            mem_peak_hlo = 0;
            selection = None;
            llo =
              {
                Llo.routines = 0;
                mach_instrs = Array.length image.Cmo_link.Image.code;
                spilled_vregs = 0;
                peephole_rewrites = 0;
                layout_changes = 0;
              };
            frontend_seconds;
            hlo_seconds = 0.0;
            llo_seconds = 0.0;
            link_seconds = 0.0;
            frontend_wall_seconds;
            hlo_wall_seconds = 0.0;
            llo_wall_seconds = 0.0;
            workers_used = 1;
            total_lines = 0;
            cmo_lines = 0;
            warm_lines = 0;
            cold_lines = 0;
            cache = None;
            obs =
              (if Cmo_obs.Obs.enabled () then Some (Cmo_obs.Obs.summary ())
               else None);
          };
      }
    end
  in
  {
    build = build_result;
    recompiled = List.rev !recompiled;
    reused = List.rev !reused;
  }

let build ?profile ?remote t options sources =
  let s = open_session t in
  Fun.protect
    ~finally:(fun () -> close_session s)
    (fun () -> request ?profile ?remote s options sources)
