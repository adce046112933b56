module Codec = Cmo_support.Codec
module Options = Cmo_driver.Options
module Pipeline = Cmo_driver.Pipeline

type build_req = {
  tag : string;
  options : Options.t;
  profile : string option;
  fault : string option;
  sources : Pipeline.source list;
}

type request =
  | Hello of Cmo_driver.Greeting.t
  | Ping
  | Build of build_req
  | Stats
  | Shutdown
  | Cache_get of { key : string }
  | Cache_put of { key : string; data : string }
  | Cohort_list
  | Cohort_ingest of { cohort : string; shards : string list }
  | Cohort_pull of { cohort : string; current_fp : string }
  | Cohort_diff of {
      base : string;
      canary : string;
      percent : float;
      threshold : float;
      sources : Pipeline.source list;
    }

type stats = {
  accepted : int;
  completed : int;
  failed : int;
  rejected : int;
  queue_depth : int;
  inflight : int;
  store_hits : int;
  store_misses : int;
}

type response =
  | Pong
  | Built of {
      tag : string;
      objects : string list;
      routine_order : string list;
      report : string;
    }
  | Rejected of { tag : string; reason : string }
  | Failed of { tag : string; reason : string }
  | Stats_reply of stats
  | Shutting_down
  | Cache_hit of { data : string }
  | Cache_miss
  | Cache_stored
  | Cohort_listing of { cohorts : Cmo_profile.Cohort.info list }
  | Cohort_stored of { cohort : string; shards : int }
  | Cohort_db of { data : string; shards : int; skipped : int }
  | Cohort_report of { report : string }

(* ---- binary encoding (Codec, same substrate as object files) ---- *)

let write_sources w sources =
  Codec.Writer.list w
    (fun (s : Pipeline.source) ->
      Codec.Writer.string w s.Pipeline.name;
      Codec.Writer.string w s.Pipeline.text)
    sources

let read_sources r =
  Codec.Reader.list r (fun r ->
      let name = Codec.Reader.string r in
      let text = Codec.Reader.string r in
      { Pipeline.name; text })

let write_build_req w (b : build_req) =
  Codec.Writer.string w b.tag;
  Options.encode w b.options;
  Codec.Writer.option w (Codec.Writer.string w) b.profile;
  Codec.Writer.option w (Codec.Writer.string w) b.fault;
  write_sources w b.sources

let read_build_req r =
  let tag = Codec.Reader.string r in
  let options = Options.decode r in
  let profile = Codec.Reader.option r Codec.Reader.string in
  let fault = Codec.Reader.option r Codec.Reader.string in
  let sources = read_sources r in
  { tag; options; profile; fault; sources }

let string_of_request req =
  let w = Codec.Writer.create () in
  (match req with
  | Hello g ->
    Codec.Writer.byte w 14;
    Cmo_driver.Greeting.write w g
  | Ping -> Codec.Writer.byte w 1
  | Build b ->
    Codec.Writer.byte w 13;
    write_build_req w b
  | Stats -> Codec.Writer.byte w 3
  | Shutdown -> Codec.Writer.byte w 4
  | Cache_get { key } ->
    Codec.Writer.byte w 5;
    Codec.Writer.string w key
  | Cache_put { key; data } ->
    Codec.Writer.byte w 6;
    Codec.Writer.string w key;
    Codec.Writer.string w data
  | Cohort_list -> Codec.Writer.byte w 9
  | Cohort_ingest { cohort; shards } ->
    Codec.Writer.byte w 10;
    Codec.Writer.string w cohort;
    Codec.Writer.list w (Codec.Writer.string w) shards
  | Cohort_pull { cohort; current_fp } ->
    Codec.Writer.byte w 11;
    Codec.Writer.string w cohort;
    Codec.Writer.string w current_fp
  | Cohort_diff { base; canary; percent; threshold; sources } ->
    Codec.Writer.byte w 12;
    Codec.Writer.string w base;
    Codec.Writer.string w canary;
    Codec.Writer.float w percent;
    Codec.Writer.float w threshold;
    write_sources w sources);
  Codec.Writer.contents w

let request_of_reader r =
  match Codec.Reader.byte r with
  | 1 -> Ping
  | 3 -> Stats
  | 4 -> Shutdown
  | 5 -> Cache_get { key = Codec.Reader.string r }
  | 6 ->
    let key = Codec.Reader.string r in
    let data = Codec.Reader.string r in
    Cache_put { key; data }
  | 9 -> Cohort_list
  | 10 ->
    let cohort = Codec.Reader.string r in
    let shards = Codec.Reader.list r Codec.Reader.string in
    Cohort_ingest { cohort; shards }
  | 11 ->
    let cohort = Codec.Reader.string r in
    let current_fp = Codec.Reader.string r in
    Cohort_pull { cohort; current_fp }
  | 12 ->
    let base = Codec.Reader.string r in
    let canary = Codec.Reader.string r in
    let percent = Codec.Reader.float r in
    let threshold = Codec.Reader.float r in
    let sources = read_sources r in
    Cohort_diff { base; canary; percent; threshold; sources }
  | 13 -> Build (read_build_req r)
  | 14 -> Hello (Cmo_driver.Greeting.read r)
  | n -> Codec.Reader.corrupt (Printf.sprintf "bad request tag %d" n)

let write_stats w (s : stats) =
  Codec.Writer.uvarint w s.accepted;
  Codec.Writer.uvarint w s.completed;
  Codec.Writer.uvarint w s.failed;
  Codec.Writer.uvarint w s.rejected;
  Codec.Writer.uvarint w s.queue_depth;
  Codec.Writer.uvarint w s.inflight;
  Codec.Writer.uvarint w s.store_hits;
  Codec.Writer.uvarint w s.store_misses

let read_stats r =
  let accepted = Codec.Reader.uvarint r in
  let completed = Codec.Reader.uvarint r in
  let failed = Codec.Reader.uvarint r in
  let rejected = Codec.Reader.uvarint r in
  let queue_depth = Codec.Reader.uvarint r in
  let inflight = Codec.Reader.uvarint r in
  let store_hits = Codec.Reader.uvarint r in
  let store_misses = Codec.Reader.uvarint r in
  { accepted; completed; failed; rejected; queue_depth; inflight;
    store_hits; store_misses }

let string_of_response resp =
  let w = Codec.Writer.create () in
  (match resp with
  | Pong -> Codec.Writer.byte w 1
  | Built { tag; objects; routine_order; report } ->
    Codec.Writer.byte w 17;
    Codec.Writer.string w tag;
    Codec.Writer.list w (Codec.Writer.string w) objects;
    Codec.Writer.list w (Codec.Writer.string w) routine_order;
    Codec.Writer.string w report
  | Rejected { tag; reason } ->
    Codec.Writer.byte w 3;
    Codec.Writer.string w tag;
    Codec.Writer.string w reason
  | Failed { tag; reason } ->
    Codec.Writer.byte w 4;
    Codec.Writer.string w tag;
    Codec.Writer.string w reason
  | Stats_reply s ->
    Codec.Writer.byte w 5;
    write_stats w s
  | Shutting_down -> Codec.Writer.byte w 6
  | Cache_hit { data } ->
    Codec.Writer.byte w 7;
    Codec.Writer.string w data
  | Cache_miss -> Codec.Writer.byte w 8
  | Cache_stored -> Codec.Writer.byte w 9
  | Cohort_listing { cohorts } ->
    Codec.Writer.byte w 16;
    Codec.Writer.list w
      (fun (i : Cmo_profile.Cohort.info) ->
        Codec.Writer.string w i.ci_name;
        Codec.Writer.uvarint w i.ci_shards;
        Codec.Writer.uvarint w i.ci_damaged;
        Codec.Writer.uvarint w i.ci_bytes)
      cohorts
  | Cohort_stored { cohort; shards } ->
    Codec.Writer.byte w 13;
    Codec.Writer.string w cohort;
    Codec.Writer.uvarint w shards
  | Cohort_db { data; shards; skipped } ->
    Codec.Writer.byte w 14;
    Codec.Writer.string w data;
    Codec.Writer.uvarint w shards;
    Codec.Writer.uvarint w skipped
  | Cohort_report { report } ->
    Codec.Writer.byte w 15;
    Codec.Writer.string w report);
  Codec.Writer.contents w

let response_of_reader r =
  match Codec.Reader.byte r with
  | 1 -> Pong
  | 3 ->
    let tag = Codec.Reader.string r in
    let reason = Codec.Reader.string r in
    Rejected { tag; reason }
  | 4 ->
    let tag = Codec.Reader.string r in
    let reason = Codec.Reader.string r in
    Failed { tag; reason }
  | 5 -> Stats_reply (read_stats r)
  | 6 -> Shutting_down
  | 7 -> Cache_hit { data = Codec.Reader.string r }
  | 8 -> Cache_miss
  | 9 -> Cache_stored
  | 16 ->
    let cohorts =
      Codec.Reader.list r (fun r ->
          let ci_name = Codec.Reader.string r in
          let ci_shards = Codec.Reader.uvarint r in
          let ci_damaged = Codec.Reader.uvarint r in
          let ci_bytes = Codec.Reader.uvarint r in
          { Cmo_profile.Cohort.ci_name; ci_shards; ci_damaged; ci_bytes })
    in
    Cohort_listing { cohorts }
  | 13 ->
    let cohort = Codec.Reader.string r in
    let shards = Codec.Reader.uvarint r in
    Cohort_stored { cohort; shards }
  | 14 ->
    let data = Codec.Reader.string r in
    let shards = Codec.Reader.uvarint r in
    let skipped = Codec.Reader.uvarint r in
    Cohort_db { data; shards; skipped }
  | 15 -> Cohort_report { report = Codec.Reader.string r }
  | 17 ->
    let tag = Codec.Reader.string r in
    let objects = Codec.Reader.list r Codec.Reader.string in
    let routine_order = Codec.Reader.list r Codec.Reader.string in
    let report = Codec.Reader.string r in
    Built { tag; objects; routine_order; report }
  | n -> Codec.Reader.corrupt (Printf.sprintf "bad response tag %d" n)

let decode of_reader payload =
  match Codec.Reader.exact "message" of_reader payload with
  | v -> Ok v
  | exception Codec.Reader.Corrupt m -> Error m

let request_of_string = decode request_of_reader

let response_of_string = decode response_of_reader
