module W = Cmo_support.Codec.Writer
module R = Cmo_support.Codec.Reader
module Fsio = Cmo_support.Fsio

let log_src = Logs.Src.create "cmo.cache" ~doc:"Artifact cache store"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* CMOCACHE2: payload records gained length+CRC framing and index
   entries remember each record's CRC, so a CMOCACHE1 store reads as
   empty (a cold rebuild, not an error). *)
let magic = "CMOCACHE2"

type entry = {
  mutable offset : int;  (* of the framed record, not the payload *)
  length : int;  (* of the payload *)
  crc : int32;
  mutable last_use : int;
}

type t = {
  dir : string;
  index_path : string;
  payload_path : string;
  capacity : int;
  entries : (string, entry) Hashtbl.t;
  lock : Mutex.t;  (* guards every public operation *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable evictions : int;
  mutable live_bytes : int;
  mutable payload_len : int;  (* includes dead bytes and framing *)
  mutable out : Fsio.appender option;  (* lazy append stream *)
  reader : Fsio.reader;
      (* Kept open across reads; closed whenever the payload file is
         replaced or removed (compaction, clear) and on close. *)
}

let locked (t : t) f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

type stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  entries : int;
  live_bytes : int;
  payload_bytes : int;
  capacity : int;
}

(* On-disk footprint of an entry's record. *)
let disk_size (e : entry) = Fsio.frame_overhead + e.length

(* A missing or malformed index reads as empty: artifacts are then
   rediscovered as misses and the orphaned payload bytes are dead
   until the next compaction. *)
let load_index (t : t) =
  match Fsio.read_file t.index_path with
  | exception Sys_error _ -> ()
  | bytes -> (
    try
      let r = R.of_string bytes in
      if R.string r <> magic then R.corrupt "bad cache magic";
      t.hits <- R.uvarint r;
      t.misses <- R.uvarint r;
      t.stores <- R.uvarint r;
      t.evictions <- R.uvarint r;
      t.tick <- R.uvarint r;
      List.iter
        (fun (key, offset, length, crc, last_use) ->
          if
            offset >= 0 && length >= 0
            && offset + Fsio.frame_overhead + length <= t.payload_len
          then begin
            (match Hashtbl.find_opt t.entries key with
            | Some old -> t.live_bytes <- t.live_bytes - old.length
            | None -> ());
            Hashtbl.replace t.entries key { offset; length; crc; last_use };
            t.live_bytes <- t.live_bytes + length
          end)
        (R.list r (fun r ->
             let key = R.string r in
             let offset = R.uvarint r in
             let length = R.uvarint r in
             let crc = Int32.of_int (R.uvarint r) in
             let last_use = R.uvarint r in
             (key, offset, length, crc, last_use)))
    with R.Corrupt _ | End_of_file ->
      Hashtbl.reset t.entries;
      t.live_bytes <- 0)

let save_index (t : t) =
  let w = W.create () in
  W.string w magic;
  W.uvarint w t.hits;
  W.uvarint w t.misses;
  W.uvarint w t.stores;
  W.uvarint w t.evictions;
  W.uvarint w t.tick;
  let items =
    Hashtbl.fold (fun key e acc -> (key, e) :: acc) t.entries []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  W.list w
    (fun (key, (e : entry)) ->
      W.string w key;
      W.uvarint w e.offset;
      W.uvarint w e.length;
      W.uvarint w (Int32.to_int e.crc land 0xffffffff);
      W.uvarint w e.last_use)
    items;
  Fsio.atomic_write t.index_path (W.contents w)

(* An index that cannot be saved is a stale index, not a failed
   build: the affected artifacts are recomputed next time. *)
let save_index_soft (t : t) =
  try save_index t
  with Sys_error m ->
    Cmo_obs.Obs.tick "cache.store" "index_errors" 1;
    Log.warn (fun f -> f "cache index not saved (%s); will recompute" m)

let open_ ?(capacity = 256 * 1024 * 1024) ~dir () =
  (try Fsio.mkdirs dir
   with Sys_error m ->
     Cmo_obs.Obs.tick "cache.store" "io_errors" 1;
     Log.warn (fun f -> f "cache directory unavailable (%s)" m));
  let payload_path = Filename.concat dir "payload" in
  let t =
    {
      dir;
      index_path = Filename.concat dir "index";
      payload_path;
      capacity;
      entries = Hashtbl.create 64;
      lock = Mutex.create ();
      tick = 0;
      hits = 0;
      misses = 0;
      stores = 0;
      evictions = 0;
      live_bytes = 0;
      payload_len = 0;
      out = None;
      reader = Fsio.reader payload_path;
    }
  in
  (* Resynchronize after a torn append: keep the structurally whole
     record prefix, truncate the tail a crash left behind. *)
  let valid_end, size =
    try Fsio.valid_prefix t.payload_path with Sys_error _ -> (0, 0)
  in
  if valid_end < size then begin
    Cmo_obs.Obs.tick "cache.store" "torn_tail_truncated" 1;
    Log.warn (fun f ->
        f "cache payload torn at byte %d (of %d); truncating" valid_end size);
    try Fsio.truncate t.payload_path valid_end with Sys_error _ -> ()
  end;
  t.payload_len <- valid_end;
  load_index t;
  t

let next_tick (t : t) =
  t.tick <- t.tick + 1;
  t.tick

let read_entry (t : t) (e : entry) =
  Fsio.read_at ~expect_crc:e.crc t.reader ~offset:e.offset ~length:e.length

let drop (t : t) key (e : entry) =
  Hashtbl.remove t.entries key;
  t.live_bytes <- t.live_bytes - e.length

(* A record whose framing or CRC fails is data corruption, not an
   I/O error: preserve the damaged bytes for a post-mortem, then
   treat the key as a miss. *)
let quarantine (t : t) key (e : entry) reason =
  Cmo_obs.Obs.tick "cache.store" "quarantined" 1;
  Log.warn (fun f ->
      f "corrupt cache record at offset %d (%s); quarantined, key %s is a miss"
        e.offset reason
        (String.sub key 0 (min 12 (String.length key))));
  try
    let qdir = Filename.concat t.dir "quarantine" in
    Fsio.mkdirs qdir;
    let raw =
      Fsio.read_span t.payload_path ~offset:e.offset ~length:(disk_size e)
    in
    Fsio.atomic_write (Filename.concat qdir (Printf.sprintf "rec-%d" e.offset)) raw
  with Sys_error _ -> ()

let note_hit (t : t) (e : entry) =
  t.hits <- t.hits + 1;
  e.last_use <- next_tick t

let find_unlocked (t : t) key =
  match Hashtbl.find_opt t.entries key with
  | None ->
    t.misses <- t.misses + 1;
    None
  | Some e -> (
    match read_entry t e with
    | data ->
      note_hit t e;
      Some data
    | exception Fsio.Corrupt_record { reason; _ } ->
      quarantine t key e reason;
      drop t key e;
      t.misses <- t.misses + 1;
      None
    | exception (Sys_error _ | End_of_file) ->
      (* Unreadable payload: drop the record and degrade to a miss. *)
      Cmo_obs.Obs.tick "cache.store" "io_errors" 1;
      drop t key e;
      t.misses <- t.misses + 1;
      None)

let observe hit =
  Cmo_obs.Obs.tick "cache.store" (if hit then "hits" else "misses") 1

let find (t : t) key =
  let r = locked t (fun () -> find_unlocked t key) in
  observe (Option.is_some r);
  r

(* Read without observation: no counter bump, no LRU refresh, no
   entry dropped or quarantined on a damaged payload.  This is what
   transactions read through — their logged operations are replayed
   against the real store at commit, which is when the counters
   move.  A hit comes with the entry it read and verified. *)
let peek (t : t) key =
  locked t (fun () ->
      match Hashtbl.find_opt t.entries key with
      | None -> None
      | Some e -> (
        match read_entry t e with
        | data -> Some (data, e)
        | exception (Fsio.Corrupt_record _ | Sys_error _ | End_of_file) -> None))

let append_stream (t : t) =
  match t.out with
  | Some a -> a
  | None ->
    let a = Fsio.open_append t.payload_path in
    t.out <- Some a;
    a

let close_append (t : t) =
  match t.out with
  | Some a ->
    Fsio.close_append a;
    t.out <- None
  | None -> ()

let evict (t : t) =
  (* Down to the capacity, never below one entry: a single oversized
     artifact is more useful kept than thrashed. *)
  while t.live_bytes > t.capacity && Hashtbl.length t.entries > 1 do
    let victim =
      Hashtbl.fold
        (fun key e acc ->
          match acc with
          | Some (_, best) when best.last_use <= e.last_use -> acc
          | _ -> Some (key, e))
        t.entries None
    in
    match victim with
    | Some (key, e) ->
      drop t key e;
      t.evictions <- t.evictions + 1
    | None -> ()
  done

(* Rewrite the payload keeping only live artifacts, streamed in offset
   order so compaction memory stays at one artifact.  New offsets are
   staged on the side and committed only once the replacement file is
   in place — a failure at any point leaves the store untouched. *)
let compact (t : t) =
  let live_disk =
    t.live_bytes + (Fsio.frame_overhead * Hashtbl.length t.entries)
  in
  let dead = t.payload_len - live_disk in
  if dead > max (1 lsl 20) live_disk then begin
    close_append t;
    let live =
      Hashtbl.fold (fun key e acc -> (key, e) :: acc) t.entries []
      |> List.sort (fun (_, a) (_, b) -> compare a.offset b.offset)
    in
    let tmp = t.payload_path ^ ".tmp" in
    Fun.protect ~finally:(fun () -> Fsio.close_reader t.reader) @@ fun () ->
    match
      let a = Fsio.open_append ~trunc:true tmp in
      let moved =
        Fun.protect
          ~finally:(fun () -> Fsio.close_append ~fsync:true a)
          (fun () ->
            List.map (fun (_, e) -> (e, Fsio.append_record a (read_entry t e))) live)
      in
      Fsio.rename tmp t.payload_path;
      (moved, Fsio.append_pos a)
    with
    | moved, new_len ->
      List.iter (fun ((e : entry), off) -> e.offset <- off) moved;
      t.payload_len <- new_len
    | exception (Sys_error _ | Fsio.Corrupt_record _ | End_of_file) ->
      (* Abandon this compaction; the dead bytes stay until the next
         attempt and every entry still points into the old file. *)
      Cmo_obs.Obs.tick "cache.store" "io_errors" 1;
      Log.warn (fun f -> f "cache compaction abandoned");
      (try Fsio.remove tmp with Sys_error _ -> ())
  end

let add_unlocked (t : t) key data =
  (* Append before dropping any replaced entry: a failed append then
     leaves the old artifact still reachable. *)
  let a = append_stream t in
  let offset = Fsio.append_record a data in
  (match Hashtbl.find_opt t.entries key with
  | Some old -> drop t key old
  | None -> ());
  let e =
    {
      offset;
      length = String.length data;
      crc = Fsio.crc32 data;
      last_use = next_tick t;
    }
  in
  t.payload_len <- Fsio.append_pos a;
  t.live_bytes <- t.live_bytes + e.length;
  t.stores <- t.stores + 1;
  Hashtbl.replace t.entries key e;
  evict t;
  compact t

let add (t : t) key data =
  match locked t (fun () -> add_unlocked t key data) with
  | () ->
    Cmo_obs.Obs.tick "cache.store" "stores" 1;
    Cmo_obs.Obs.tick "cache.store" "store_bytes" (String.length data)
  | exception Sys_error m ->
    (* A store that cannot be written is a cache miss next time, not
       a failed build. *)
    Cmo_obs.Obs.tick "cache.store" "write_errors" 1;
    Log.warn (fun f -> f "cache write failed (%s); artifact not cached" m)

let flush (t : t) = locked t (fun () -> save_index_soft t)

let close (t : t) =
  flush t;
  locked t (fun () ->
      Fsio.close_reader t.reader;
      match t.out with
      | Some a ->
        Fsio.close_append ~fsync:true a;
        t.out <- None
      | None -> ())

let clear (t : t) =
  locked t (fun () ->
      close_append t;
      Fsio.close_reader t.reader;
      Hashtbl.reset t.entries;
      t.tick <- 0;
      t.hits <- 0;
      t.misses <- 0;
      t.stores <- 0;
      t.evictions <- 0;
      t.live_bytes <- 0;
      t.payload_len <- 0;
      (try Fsio.remove t.payload_path with Sys_error _ -> ());
      save_index_soft t)

let wipe ~dir =
  let rm path =
    if Sys.file_exists path then try Fsio.remove path with Sys_error _ -> ()
  in
  List.iter
    (fun f -> rm (Filename.concat dir f))
    [ "index"; "index.tmp"; "payload"; "payload.tmp" ];
  let qdir = Filename.concat dir "quarantine" in
  if Sys.file_exists qdir then begin
    (try Array.iter (fun f -> rm (Filename.concat qdir f)) (Sys.readdir qdir)
     with Sys_error _ -> ());
    try Sys.rmdir qdir with Sys_error _ -> ()
  end;
  if Sys.file_exists dir then try Sys.rmdir dir with Sys_error _ -> ()

let stats (t : t) =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        stores = t.stores;
        evictions = t.evictions;
        entries = Hashtbl.length t.entries;
        live_bytes = t.live_bytes;
        payload_bytes = t.payload_len;
        capacity = t.capacity;
      })

(* ---- transactions -------------------------------------------------

   A transaction gives one parallel worker an isolated view: it reads
   the store as it stood when the transaction began (via [peek], which
   observes nothing) plus its own buffered writes, and it logs every
   find/add it performs.  Nothing touches the store's counters, LRU
   clock or files until [txn_commit] replays the log through the
   ordinary [find]/[add] path on the committing thread.

   A find the peek already read and verified is not read again: when
   the key still maps to the very entry the peek read, a real [find]
   could only hit it, so the replay does a hit's bookkeeping alone
   (hit counter, LRU tick, Obs tick).  Anything else — a miss, a hit
   on the transaction's own write, an entry replaced, dropped or
   evicted since — replays as a real [find], with its reads,
   quarantine and misses.

   Determinism: a worker's log is a function of the snapshot and its
   own inputs alone, so as long as transactions are begun against the
   same snapshot and committed in a fixed order, the store's on-disk
   bytes are identical no matter how many workers ran or how their
   execution interleaved. *)

type op =
  | Ofind of string * entry option  (* the entry a peek read and verified *)
  | Oadd of string * string

type txn = {
  origin : t;
  writes : (string, string) Hashtbl.t;
  mutable ops : op list;  (* newest first *)
}

let txn_begin (t : t) = { origin = t; writes = Hashtbl.create 16; ops = [] }

let txn_find (txn : txn) key =
  match Hashtbl.find_opt txn.writes key with
  | Some data ->
    txn.ops <- Ofind (key, None) :: txn.ops;
    Some data
  | None -> (
    match peek txn.origin key with
    | Some (data, e) ->
      txn.ops <- Ofind (key, Some e) :: txn.ops;
      Some data
    | None ->
      txn.ops <- Ofind (key, None) :: txn.ops;
      None)

let txn_add (txn : txn) key data =
  txn.ops <- Oadd (key, data) :: txn.ops;
  Hashtbl.replace txn.writes key data

let replay_find (t : t) key seen =
  let hit =
    locked t (fun () ->
        match (seen, Hashtbl.find_opt t.entries key) with
        | Some e, Some e' when e == e' ->
          note_hit t e;
          true
        | _ -> Option.is_some (find_unlocked t key))
  in
  observe hit

let txn_commit (txn : txn) =
  Cmo_obs.Obs.tick "cache.store" "txn_commits" 1;
  List.iter
    (function
      | Ofind (key, seen) -> replay_find txn.origin key seen
      | Oadd (key, data) -> add txn.origin key data)
    (List.rev txn.ops);
  txn.ops <- [];
  Hashtbl.reset txn.writes

let pp_stats ppf s =
  let ratio =
    if s.hits + s.misses = 0 then 0.0
    else 100.0 *. float_of_int s.hits /. float_of_int (s.hits + s.misses)
  in
  Format.fprintf ppf
    "@[<v>hits %d, misses %d (%.1f%% hit rate)@,stores %d, evictions %d@,%d \
     entries, %d live bytes (%d on disk, capacity %d)@]"
    s.hits s.misses ratio s.stores s.evictions s.entries s.live_bytes
    s.payload_bytes s.capacity
