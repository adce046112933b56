module Objfile = Cmo_link.Objfile
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

let clean t =
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".o" then Fsio.remove (Filename.concat t.dir f))
    (Sys.readdir t.dir);
  Store.wipe ~dir:t.cache_dir

(* The up-to-date key an object records in its source-digest field:
   the digest of the source for an IL object; for a code object, the
   digest of the source behind the fixed-width digest of every option
   that changes generated code. *)
let object_key (options : Options.t) ~il (src : Pipeline.source) =
  let text = src.Pipeline.text in
  Digest.to_hex
    (Digest.string
       (if il then text
        else Digest.string (Options.cache_fingerprint options) ^ text))

(* Current: records [key] and is of the kind asked for.  Both count:
   code objects keyed before options were covered record the bare
   source digest, which is also an IL object's key. *)
let load_if_current t ~il ~key (src : Pipeline.source) =
  let path = object_path t src.Pipeline.name in
  if Sys.file_exists path then begin
    match Objfile.load path with
    | obj when obj.Objfile.source_digest = key && Objfile.is_il obj = il ->
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
  let reused = Hashtbl.create 16 in
  let find ~il (src : Pipeline.source) =
    let obj = load_if_current t ~il ~key:(object_key options ~il src) src in
    if Option.is_some obj then Hashtbl.replace reused src.Pipeline.name ();
    obj
  in
  let save (src : Pipeline.source) obj =
    let key = object_key options ~il:(Objfile.is_il obj) src in
    try
      Objfile.save
        { obj with Objfile.source_digest = key }
        (object_path t src.Pipeline.name)
    with Sys_error m ->
      (* The object stays in memory for this build and is recompiled
         next time; not a failed build. *)
      Obs.tick "buildsys" "object_write_errors" 1;
      Log.warn (fun f -> f "object for %s not saved (%s)" src.Pipeline.name m)
  in
  (* The store holds link-time CMO artifacts, which only +O4 makes. *)
  let cache = if options.Options.level = Options.O4 then s.sstore else None in
  let build =
    Pipeline.compile ?profile ?cache ?naim_repo:s.srepo ?remote
      ~objects:{ Pipeline.find; save } options sources
  in
  (* Keep the warm store durable between requests: the session
     outlives this build, so flush now rather than at close. *)
  Option.iter Store.flush cache;
  let reused, recompiled =
    List.map (fun (src : Pipeline.source) -> src.Pipeline.name) sources
    |> List.partition (Hashtbl.mem reused)
  in
  { build; recompiled; reused }

let build ?profile ?remote t options sources =
  let s = open_session t in
  Fun.protect
    ~finally:(fun () -> close_session s)
    (fun () -> request ?profile ?remote s options sources)
