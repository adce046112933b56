module Fsio = Cmo_support.Fsio

(* The file backing writes each pool as an Fsio length+CRC framed
   record: a torn or corrupted pool is then detected at fetch time
   instead of silently decoding garbage IL.  The memory backing
   (tests, parallel workers) stays raw — it cannot tear. *)
type backing =
  | File of {
      path : string;
      mutable app : Fsio.appender option;
      reader : Fsio.reader;  (* kept open until [close] *)
    }
  | Memory of Buffer.t

type t = {
  backing : backing;
  mutable next_offset : int;
  mutable stores : int;
  mutable fetches : int;
  id : int;  (* guards against foreign handles *)
  lock : Mutex.t;
      (* One repository can back the loaders of several concurrent
         build requests (the daemon's warm NAIM state), so offset
         allocation and the counters are serialized here. *)
}

type handle = { repo_id : int; offset : int; length : int; crc : int32 }

(* Atomic: parallel HLO workers each create their own in-memory
   repository through their loaders. *)
let next_id = Atomic.make 0

let make backing =
  { backing; next_offset = 0; stores = 0; fetches = 0;
    id = 1 + Atomic.fetch_and_add next_id 1; lock = Mutex.create () }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let create ~path =
  let app = Fsio.open_append ~trunc:true path in
  make (File { path; app = Some app; reader = Fsio.reader path })

let in_memory () = make (Memory (Buffer.create 4096))

let store t bytes =
  locked t @@ fun () ->
  let length = String.length bytes in
  let offset, crc, next =
    match t.backing with
    | File f -> (
      match f.app with
      | Some app ->
        let offset = Fsio.append_record app bytes in
        (offset, Fsio.crc32 bytes, Fsio.append_pos app)
      | None -> invalid_arg "Repository.store: closed repository")
    | Memory buf ->
      let offset = t.next_offset in
      Buffer.add_string buf bytes;
      (offset, 0l, offset + length)
  in
  t.next_offset <- next;
  t.stores <- t.stores + 1;
  Cmo_obs.Obs.tick "naim.repo" "stores" 1;
  Cmo_obs.Obs.tick "naim.repo" "store_bytes" length;
  { repo_id = t.id; offset; length; crc }

let fetch t handle =
  locked t @@ fun () ->
  if handle.repo_id <> t.id then
    invalid_arg "Repository.fetch: handle from another repository";
  let payload_end =
    match t.backing with
    | File _ -> handle.offset + Fsio.frame_overhead + handle.length
    | Memory _ -> handle.offset + handle.length
  in
  if payload_end > t.next_offset then
    invalid_arg "Repository.fetch: handle beyond stored data";
  t.fetches <- t.fetches + 1;
  Cmo_obs.Obs.tick "naim.repo" "fetches" 1;
  Cmo_obs.Obs.tick "naim.repo" "fetch_bytes" handle.length;
  match t.backing with
  | Memory buf -> Buffer.sub buf handle.offset handle.length
  | File f ->
    Fsio.read_at ~expect_crc:handle.crc f.reader ~offset:handle.offset
      ~length:handle.length

let stored_bytes t = locked t (fun () -> t.next_offset)

let stores t = locked t (fun () -> t.stores)

let fetches t = locked t (fun () -> t.fetches)

let close t =
  locked t @@ fun () ->
  match t.backing with
  | Memory _ -> ()
  | File f ->
    Option.iter Fsio.close_append f.app;
    f.app <- None;
    Fsio.close_reader f.reader;
    if Sys.file_exists f.path then
      try Fsio.remove f.path with Sys_error _ -> ()
