module Ilmod = Cmo_il.Ilmod
module Objfile = Cmo_link.Objfile
module Memstats = Cmo_naim.Memstats
module Store = Cmo_cache.Store
module Fsio = Cmo_support.Fsio
module Obs = Cmo_obs.Obs

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
  let save (src : Pipeline.source) obj =
    try Objfile.save obj (object_path t src.Pipeline.name)
    with Sys_error m ->
      (* The object stays in memory for this build and is recompiled
         next time; not a failed build. *)
      Obs.tick "buildsys" "object_write_errors" 1;
      Log.warn (fun f -> f "object for %s not saved (%s)" src.Pipeline.name m)
  in
  (* Each source's current object, or the module its frontend just
     produced — under +O4 written out at once as an IL object; code
     objects wait for code generation. *)
  let units, frontend =
    Pipeline.stage "frontend" @@ fun () ->
    List.map
      (fun (src : Pipeline.source) ->
        match load_if_current t src with
        | Some obj when Objfile.is_il obj = want_il ->
          Obs.instant ~cat:"frontend" src.Pipeline.name;
          (src, Either.Left obj)
        | Some _ | None ->
          let m = Pipeline.frontend_one src in
          if want_il then
            save src (Objfile.of_il ~source_digest:(digest src.Pipeline.text) m);
          (src, Either.Right m))
      sources
  in
  let fresh = List.filter_map (fun (_, u) -> Either.find_right u) units in
  let build =
    if want_il then begin
      (* CMO happens at link time, over the IL of every object. *)
      let modules =
        List.map
          (fun (_, u) ->
            match u with
            | Either.Right m | Either.Left { Objfile.payload = Objfile.Il m; _ }
              ->
              m
            | Either.Left o ->
              raise
                (Pipeline.Compile_error
                   (Printf.sprintf "object %s lacks an IL payload" o.Objfile.module_name)))
          units
      in
      let b =
        Pipeline.compile_modules ?profile ?cache:s.sstore ?naim_repo:s.srepo
          ?remote ~frontend options modules
      in
      (* Keep the warm store durable between requests: the session
         outlives this build, so flush now rather than at close. *)
      Option.iter Store.flush s.sstore;
      b
    end
    else begin
      (* Only the modules this build compiled go through the stages
         (and count in the report); the link takes every object in
         source order, unclustered — reused objects carry no IL. *)
      let closed = List.length fresh = List.length units in
      let mem = Memstats.create () in
      let lines =
        List.fold_left (fun n m -> n + Ilmod.src_lines m) 0 fresh
      in
      let (plan, (optimized, hlo_stats)), hlo =
        Pipeline.stage "hlo" (fun () ->
            let plan = Pipeline.wpa ?profile ~closed ~mem options fresh in
            (plan, Pipeline.optimize plan))
      in
      let (objects, llo_stats), llo =
        Pipeline.stage "llo" (fun () ->
            let objects, stats = Pipeline.llo ~closed ~mem options optimized in
            let built = Hashtbl.create 16 in
            List.iter
              (fun (o : Objfile.t) -> Hashtbl.replace built o.Objfile.module_name o)
              objects;
            ( List.map
                (fun ((src : Pipeline.source), u) ->
                  match u with
                  | Either.Left obj -> obj
                  | Either.Right _ ->
                    let obj =
                      {
                        (Hashtbl.find built src.Pipeline.name) with
                        Objfile.source_digest = digest src.Pipeline.text;
                      }
                    in
                    save src obj;
                    obj)
                units,
              stats ))
      in
      let image, link = Pipeline.stage "link" (fun () -> Pipeline.link objects) in
      {
        Pipeline.image;
        objects;
        manifest = None;
        report =
          Pipeline.make_report ~frontend ~hlo ~llo ~link ~plan ?hlo_stats ~mem
            ~lines ~llo_stats options;
      }
    end
  in
  let names recompiled =
    List.filter_map
      (fun ((src : Pipeline.source), u) ->
        if Either.is_right u = recompiled then Some src.Pipeline.name else None)
      units
  in
  { build; recompiled = names true; reused = names false }

let build ?profile ?remote t options sources =
  let s = open_session t in
  Fun.protect
    ~finally:(fun () -> close_session s)
    (fun () -> request ?profile ?remote s options sources)
