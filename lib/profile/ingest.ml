module Codec = Cmo_support.Codec
module Fsio = Cmo_support.Fsio
module Obs = Cmo_obs.Obs

type meta = {
  source_fp : string;
  sample_rate : float;
  weight : float;
  age : int;
}

type shard = { meta : meta; db : Db.t }

type policy = {
  current_fp : string;
  decay_rate : float;
  skew_weight : float;
  clamp_ratio : float;
}

let default_policy ~current_fp =
  { current_fp; decay_rate = 0.9; skew_weight = 0.25; clamp_ratio = 4.0 }

type stats = {
  ing_shards : int;
  ing_skipped : int;
  ing_skewed : int;
  ing_clamped : int;
  ing_weight : float;
}

let fingerprint sources =
  let sources =
    List.sort (fun (a, _) (b, _) -> String.compare a b) sources
  in
  let w = Codec.Writer.create () in
  List.iter
    (fun (name, text) ->
      Codec.Writer.string w name;
      Codec.Writer.string w text)
    sources;
  Digest.to_hex (Digest.string (Codec.Writer.contents w))

(* Shard encoding: a version byte, the meta fields, then the embedded
   canonical Db bytes as one length-prefixed string. *)

let shard_version = 1

let encode_shard s =
  let w = Codec.Writer.create () in
  Codec.Writer.byte w shard_version;
  Codec.Writer.string w s.meta.source_fp;
  Codec.Writer.float w s.meta.sample_rate;
  Codec.Writer.float w s.meta.weight;
  Codec.Writer.uvarint w s.meta.age;
  Codec.Writer.string w (Db.encode s.db);
  Codec.Writer.contents w

let decode_shard =
  Codec.Reader.exact "profile shard" @@ fun r ->
  let v = Codec.Reader.byte r in
  if v <> shard_version then
    Codec.Reader.corrupt
      (Printf.sprintf "profile shard version mismatch: %d vs %d" v
         shard_version);
  let source_fp = Codec.Reader.string r in
  let sample_rate = Codec.Reader.float r in
  let weight = Codec.Reader.float r in
  let age = Codec.Reader.uvarint r in
  let db = Db.decode (Codec.Reader.string r) in
  { meta = { source_fp; sample_rate; weight; age }; db }

(* The skew test: a shard recorded against other sources is
   down-weighted, never dropped — AutoFDO tolerance for version drift.
   An empty current_fp disables the test (offline ingests that do not
   know the build's sources). *)
let skewed policy meta =
  policy.current_fp <> "" && meta.source_fp <> policy.current_fp

let effective_weight policy meta =
  if meta.weight <= 0.0 then 0.0
  else begin
    let upscale =
      (* A sample rate of 1/100 means each recorded event stands for
         ~100 real ones.  Out-of-range rates degrade to no upscale:
         amplifying by a garbage rate is exactly the poisoning vector
         the clamp exists to stop, so do not manufacture it here. *)
      if meta.sample_rate > 0.0 && meta.sample_rate <= 1.0 then
        1.0 /. meta.sample_rate
      else 1.0
    in
    let decayed =
      if meta.age > 0 then policy.decay_rate ** float_of_int meta.age else 1.0
    in
    let skew = if skewed policy meta then policy.skew_weight else 1.0 in
    meta.weight *. upscale *. decayed *. skew
  end

(* Lower-middle/average median, on a sorted copy: deterministic and
   order-independent, which the canonicalization law depends on. *)
let median = function
  | [] -> 0.0
  | masses ->
    let a = Array.of_list masses in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ingest ~policy ?(skipped = 0) shards =
  Obs.with_span ~cat:"ingest" "profile-ingest" @@ fun () ->
  (* Canonical fold order: sort by the digest of each shard's encoded
     bytes.  Identical shards compare equal and are interchangeable,
     so the fold — and therefore every per-key float accumulation
     order — is a function of the shard multiset, not of arrival
     order.  That is what makes the merged Db's bytes permutation
     invariant. *)
  let keyed =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (List.map (fun s -> (Digest.string (encode_shard s), s)) shards)
  in
  let weighted =
    List.map
      (fun (_, s) ->
        let w = effective_weight policy s.meta in
        (s, w, w *. Db.total s.db))
      keyed
  in
  (* Poisoning clamp: with at least three shards there is a meaningful
     notion of agreement, and any shard whose weighted mass exceeds
     clamp_ratio x the median mass is scaled back down to the cap.  A
     1000x-inflated adversarial shard then contributes no more than a
     few honest shards' worth. *)
  (* Only contributing shards form the agreement statistic: a
     weight-0 or empty shard adds nothing to the merge, so it must not
     shift the median either — otherwise appending an invisible shard
     would change the cap and break the no-op law. *)
  let masses =
    List.filter (fun m -> m > 0.0) (List.map (fun (_, _, m) -> m) weighted)
  in
  let cap =
    if List.length masses >= 3 then policy.clamp_ratio *. median masses
    else 0.0
  in
  let into = Db.create () in
  let skewed_n = ref 0 and clamped_n = ref 0 and total_w = ref 0.0 in
  List.iter
    (fun (s, w, mass) ->
      let w =
        if cap > 0.0 && mass > cap then begin
          incr clamped_n;
          w *. (cap /. mass)
        end
        else w
      in
      if w > 0.0 && skewed policy s.meta then incr skewed_n;
      total_w := !total_w +. w;
      Db.merge_weighted ~into ~weight:w s.db)
    weighted;
  let stats =
    {
      ing_shards = List.length shards;
      ing_skipped = skipped;
      ing_skewed = !skewed_n;
      ing_clamped = !clamped_n;
      ing_weight = !total_w;
    }
  in
  if Obs.enabled () then begin
    Obs.tick "ingest" "shards" stats.ing_shards;
    Obs.tick "ingest" "skipped" stats.ing_skipped;
    Obs.tick "ingest" "skewed" stats.ing_skewed;
    Obs.tick "ingest" "clamped" stats.ing_clamped
  end;
  (into, stats)

(* Pack I/O: an append-only file of CMR1 framed shards.  Writing goes
   through the Fsio appender (fault-injectable, repaired to a record
   boundary on short writes); reading resynchronizes past damage. *)

let write_pack path shards =
  let ap = Fsio.open_append ~trunc:true path in
  Fun.protect
    ~finally:(fun () -> Fsio.close_append ~fsync:true ap)
    (fun () ->
      List.iter (fun s -> ignore (Fsio.append_record ap (encode_shard s)))
        shards)

let append_pack path shards =
  let ap = Fsio.open_append path in
  Fun.protect
    ~finally:(fun () -> Fsio.close_append ~fsync:true ap)
    (fun () ->
      List.iter (fun s -> ignore (Fsio.append_record ap (encode_shard s)))
        shards)

(* The frame magic, for resynchronization.  Fsio does not export it —
   stream consumers normally treat a bad frame as fatal — but a pack
   is a durability surface where one corrupt shard must not take the
   records after it down, so we scan forward for the next magic. *)
let record_magic = "CMR1"

let decode_pack data =
  let n = String.length data in
  let shards = ref [] and skipped = ref 0 in
  let resync pos =
    let rec find p =
      if p + String.length record_magic > n then n
      else
        match String.index_from_opt data p record_magic.[0] with
        | None -> n
        | Some i ->
          if
            i + String.length record_magic <= n
            && String.sub data i (String.length record_magic) = record_magic
          then i
          else find (i + 1)
    in
    find pos
  in
  let rec go pos =
    if pos < n then
      match Fsio.scan_frame data ~pos with
      | Fsio.Frame { payload; next } ->
        (match decode_shard payload with
        | s -> shards := s :: !shards
        | exception Codec.Reader.Corrupt _ -> incr skipped);
        go next
      | Fsio.Need _ ->
        (* A torn tail (crash mid-append): structurally incomplete,
           nothing after it can be trusted. *)
        incr skipped
      | Fsio.Bad _ ->
        (* Bad magic or CRC mismatch: count one casualty and scan
           forward for the next frame boundary. *)
        incr skipped;
        go (resync (pos + 1))
  in
  go 0;
  (List.rev !shards, !skipped)

let read_pack path = decode_pack (Fsio.read_file path)

let ingest_paths ~policy paths =
  let shards = ref [] and skipped = ref 0 in
  List.iter
    (fun path ->
      match read_pack path with
      | ss, sk ->
        shards := List.rev_append ss !shards;
        skipped := !skipped + sk
      | exception Sys_error _ ->
        (* An unreadable pack is one casualty, not a failed ingest. *)
        incr skipped)
    paths;
  ingest ~policy ~skipped:!skipped (List.rev !shards)
