type level = O1 | O2 | O4

type t = {
  level : level;
  pbo : bool;
  instrument : bool;
  selectivity : float option;
  tiered : bool;
  machine_memory : int;
  naim_level : Cmo_naim.Loader.level option;
  inline_config : Cmo_hlo.Inline.config option;
  rewrite_limit : int option;
  inline_limit : int option;
  cmo_modules : string list option;
  jobs : int;
  check : bool;
  trace : string option;
  dist : bool;
  workers : string list;
  dist_timeout : float option;
}

(* All process-tree environment knobs parse in one place.  CMO_JOBS /
   CMO_CHECK / CMO_TRACE let CI and whole test runs exercise the
   parallel, verified or traced paths without touching call sites;
   the corresponding flags (-j, --check, --trace) still override per
   build.  The fuzz seed lives here too so test helpers and the bench
   campaign resolve it identically. *)
type env = {
  env_jobs : int;  (* CMO_JOBS, >= 1; else 1 *)
  env_check : bool;  (* CMO_CHECK: anything but unset/""/"0" *)
  env_trace : string option;  (* CMO_TRACE: trace output path *)
  env_fuzz_seed : int option;  (* CMO_FUZZ_SEED, else QCHECK_SEED *)
  env_fault : string option;  (* CMO_FAULT: fault-plan spec, every site *)
  env_socket : string option;  (* CMO_SOCKET: cmocd socket path *)
  env_daemon_jobs : int;  (* CMO_DAEMON_JOBS, >= 1; else 2 *)
  env_queue_max : int;  (* CMO_QUEUE_MAX, >= 1; else 64 *)
  env_dist : bool;  (* CMO_DIST: anything but unset/""/"0" *)
  env_dist_worker : string option;  (* CMO_DIST_WORKER: worker binary *)
  env_dist_workers : string list;  (* CMO_DIST_WORKERS: host:port,... *)
  env_dist_timeout : float option;  (* CMO_DIST_TIMEOUT: read deadline, s *)
  env_dist_deadline : float option;  (* CMO_DIST_DEADLINE: straggler bound, s *)
  env_dist_expect_fp : string option;  (* CMO_DIST_EXPECT_FP: pinned Hello fp *)
  env_worker_fp : string option;  (* CMO_WORKER_FP: fp a worker reports *)
  env_worker_hb : float;  (* CMO_WORKER_HB, >= 0; else 5 *)
  env_worker_slow_s : float;  (* CMO_WORKER_SLOW_S, >= 0; else 0 *)
  env_worker_log : string option;  (* CMO_WORKER_LOG: worker log level *)
  env_cohort : string option;  (* CMO_COHORT: default profile cohort *)
  env_flip_threshold : float option;  (* CMO_FLIP_THRESHOLD, in (0,1] *)
}

let from_env ?(get = Sys.getenv_opt) () =
  let int_of name =
    Option.bind (get name) (fun s -> int_of_string_opt (String.trim s))
  in
  let float_of name =
    Option.bind (get name) (fun s -> float_of_string_opt (String.trim s))
  in
  let string_of name = match get name with Some "" | None -> None | some -> some in
  let flag name = match get name with Some ("" | "0") | None -> false | Some _ -> true in
  let nonneg name default =
    match float_of name with Some f when f >= 0.0 -> f | _ -> default
  in
  {
    env_jobs = (match int_of "CMO_JOBS" with Some n when n >= 1 -> n | _ -> 1);
    env_check = flag "CMO_CHECK";
    env_trace = string_of "CMO_TRACE";
    env_fuzz_seed =
      (match int_of "CMO_FUZZ_SEED" with
      | Some _ as s -> s
      | None -> int_of "QCHECK_SEED");
    env_fault = string_of "CMO_FAULT";
    env_socket = string_of "CMO_SOCKET";
    env_daemon_jobs =
      (match int_of "CMO_DAEMON_JOBS" with Some n when n >= 1 -> n | _ -> 2);
    env_queue_max =
      (match int_of "CMO_QUEUE_MAX" with Some n when n >= 1 -> n | _ -> 64);
    env_dist = flag "CMO_DIST";
    env_dist_worker = string_of "CMO_DIST_WORKER";
    env_dist_workers =
      (match get "CMO_DIST_WORKERS" with
      | Some s ->
        String.split_on_char ',' s
        |> List.map String.trim
        |> List.filter (fun a -> a <> "")
      | None -> []);
    env_dist_timeout =
      (match float_of "CMO_DIST_TIMEOUT" with
      | Some t when t > 0.0 -> Some t
      | _ -> None);
    env_dist_deadline =
      (match float_of "CMO_DIST_DEADLINE" with
      | Some t when t > 0.0 -> Some t
      | _ -> None);
    env_dist_expect_fp = string_of "CMO_DIST_EXPECT_FP";
    env_worker_fp = string_of "CMO_WORKER_FP";
    env_worker_hb = nonneg "CMO_WORKER_HB" 5.0;
    env_worker_slow_s = nonneg "CMO_WORKER_SLOW_S" 0.0;
    env_worker_log = string_of "CMO_WORKER_LOG";
    env_cohort = string_of "CMO_COHORT";
    env_flip_threshold =
      (match float_of "CMO_FLIP_THRESHOLD" with
      | Some f when f > 0.0 && f <= 1.0 -> Some f
      | _ -> None);
  }

let env = from_env ()
let default_jobs = env.env_jobs
let default_check = env.env_check

let base =
  {
    level = O2;
    pbo = false;
    instrument = false;
    selectivity = None;
    tiered = false;
    machine_memory = 256 * 1024 * 1024;
    naim_level = None;
    inline_config = None;
    rewrite_limit = None;
    inline_limit = None;
    cmo_modules = None;
    jobs = default_jobs;
    check = default_check;
    trace = env.env_trace;
    dist = env.env_dist;
    workers = env.env_dist_workers;
    dist_timeout = env.env_dist_timeout;
  }

let o1 = { base with level = O1 }
let o2 = base
let o2_pbo = { base with pbo = true }
let o4 = { base with level = O4 }
let o4_pbo = { base with level = O4; pbo = true }

let o4_pbo_selective percent =
  { base with level = O4; pbo = true; selectivity = Some percent }

let o4_pbo_tiered percent =
  { base with level = O4; pbo = true; selectivity = Some percent; tiered = true }

let instrumented = { base with instrument = true }

(* Canonical rendering of every field that can change generated code.
   machine_memory, naim_level, jobs, check, trace, dist, workers and
   dist_timeout are deliberately excluded: NAIM compaction/offload round-trips
   losslessly and parallel builds are bit-identical to sequential ones
   (both are tested invariants), so artifacts cached under one memory
   or worker configuration stay valid under another; the verifier and
   the trace sink observe and never rewrite, so checked/traced and
   plain builds share artifacts too; and distributed (process-worker)
   builds are byte-identical to in-process ones — the distribution
   determinism matrix is exactly the test that keeps [dist] (and with
   it worker placement and deadlines) out of the key. *)
let cache_fingerprint t =
  let opt f = function Some v -> f v | None -> "-" in
  let inline_config =
    opt
      (fun (c : Cmo_hlo.Inline.config) ->
        Printf.sprintf "%d/%h/%h/%d/%d/%d/%h/%b/%s" c.Cmo_hlo.Inline.always_threshold
          c.Cmo_hlo.Inline.hot_count_threshold c.Cmo_hlo.Inline.hot_density_ratio
          c.Cmo_hlo.Inline.hot_size_limit c.Cmo_hlo.Inline.cold_size_limit
          c.Cmo_hlo.Inline.caller_size_limit c.Cmo_hlo.Inline.program_growth
          c.Cmo_hlo.Inline.use_profile
          (opt string_of_int c.Cmo_hlo.Inline.operation_limit))
      t.inline_config
  in
  String.concat ";"
    [
      (match t.level with O1 -> "O1" | O2 -> "O2" | O4 -> "O4");
      string_of_bool t.pbo;
      opt (Printf.sprintf "%h") t.selectivity;
      string_of_bool t.tiered;
      opt string_of_int t.rewrite_limit;
      opt string_of_int t.inline_limit;
      opt (String.concat ",") t.cmo_modules;
      inline_config;
    ]

(* ---- wire codec (Codec, same substrate as object files) ----

   A partition job shipped to a cmoc-worker process carries the full
   option record, so the worker reproduces the parent's optimization
   decisions exactly.  Every field travels — including the excluded-
   from-fingerprint ones like [machine_memory], which steer NAIM
   behaviour even though they cannot change artifacts. *)

module Codec = Cmo_support.Codec

let level_tag = function O1 -> 1 | O2 -> 2 | O4 -> 4

let level_of_tag = function
  | 1 -> O1
  | 2 -> O2
  | 4 -> O4
  | n -> Codec.Reader.corrupt (Printf.sprintf "bad level tag %d" n)

let naim_level_tag = function
  | Cmo_naim.Loader.Off -> 0
  | Cmo_naim.Loader.Ir_compaction -> 1
  | Cmo_naim.Loader.St_compaction -> 2
  | Cmo_naim.Loader.Offloading -> 3

let naim_level_of_tag = function
  | 0 -> Cmo_naim.Loader.Off
  | 1 -> Cmo_naim.Loader.Ir_compaction
  | 2 -> Cmo_naim.Loader.St_compaction
  | 3 -> Cmo_naim.Loader.Offloading
  | n -> Codec.Reader.corrupt (Printf.sprintf "bad NAIM level tag %d" n)

let encode w t =
  Codec.Writer.byte w (level_tag t.level);
  Codec.Writer.bool w t.pbo;
  Codec.Writer.bool w t.instrument;
  Codec.Writer.option w (Codec.Writer.float w) t.selectivity;
  Codec.Writer.bool w t.tiered;
  Codec.Writer.uvarint w t.machine_memory;
  Codec.Writer.option w
    (fun l -> Codec.Writer.byte w (naim_level_tag l))
    t.naim_level;
  Codec.Writer.option w
    (fun (c : Cmo_hlo.Inline.config) ->
      Codec.Writer.varint w c.Cmo_hlo.Inline.always_threshold;
      Codec.Writer.float w c.Cmo_hlo.Inline.hot_count_threshold;
      Codec.Writer.float w c.Cmo_hlo.Inline.hot_density_ratio;
      Codec.Writer.varint w c.Cmo_hlo.Inline.hot_size_limit;
      Codec.Writer.varint w c.Cmo_hlo.Inline.cold_size_limit;
      Codec.Writer.varint w c.Cmo_hlo.Inline.caller_size_limit;
      Codec.Writer.float w c.Cmo_hlo.Inline.program_growth;
      Codec.Writer.bool w c.Cmo_hlo.Inline.use_profile;
      Codec.Writer.option w (Codec.Writer.varint w)
        c.Cmo_hlo.Inline.operation_limit)
    t.inline_config;
  Codec.Writer.option w (Codec.Writer.varint w) t.rewrite_limit;
  Codec.Writer.option w (Codec.Writer.varint w) t.inline_limit;
  Codec.Writer.option w
    (Codec.Writer.list w (Codec.Writer.string w))
    t.cmo_modules;
  Codec.Writer.uvarint w t.jobs;
  Codec.Writer.bool w t.check;
  Codec.Writer.option w (Codec.Writer.string w) t.trace;
  Codec.Writer.bool w t.dist;
  Codec.Writer.list w (Codec.Writer.string w) t.workers;
  Codec.Writer.option w (Codec.Writer.float w) t.dist_timeout

let decode r =
  let level = level_of_tag (Codec.Reader.byte r) in
  let pbo = Codec.Reader.bool r in
  let instrument = Codec.Reader.bool r in
  let selectivity = Codec.Reader.option r Codec.Reader.float in
  let tiered = Codec.Reader.bool r in
  let machine_memory = Codec.Reader.uvarint r in
  let naim_level =
    Codec.Reader.option r (fun r -> naim_level_of_tag (Codec.Reader.byte r))
  in
  let inline_config =
    Codec.Reader.option r (fun r ->
        let always_threshold = Codec.Reader.varint r in
        let hot_count_threshold = Codec.Reader.float r in
        let hot_density_ratio = Codec.Reader.float r in
        let hot_size_limit = Codec.Reader.varint r in
        let cold_size_limit = Codec.Reader.varint r in
        let caller_size_limit = Codec.Reader.varint r in
        let program_growth = Codec.Reader.float r in
        let use_profile = Codec.Reader.bool r in
        let operation_limit = Codec.Reader.option r Codec.Reader.varint in
        {
          Cmo_hlo.Inline.always_threshold;
          hot_count_threshold;
          hot_density_ratio;
          hot_size_limit;
          cold_size_limit;
          caller_size_limit;
          program_growth;
          use_profile;
          operation_limit;
        })
  in
  let rewrite_limit = Codec.Reader.option r Codec.Reader.varint in
  let inline_limit = Codec.Reader.option r Codec.Reader.varint in
  let cmo_modules =
    Codec.Reader.option r (fun r -> Codec.Reader.list r Codec.Reader.string)
  in
  let jobs = Codec.Reader.uvarint r in
  let check = Codec.Reader.bool r in
  let trace = Codec.Reader.option r Codec.Reader.string in
  let dist = Codec.Reader.bool r in
  let workers = Codec.Reader.list r Codec.Reader.string in
  let dist_timeout = Codec.Reader.option r Codec.Reader.float in
  {
    level;
    pbo;
    instrument;
    selectivity;
    tiered;
    machine_memory;
    naim_level;
    inline_config;
    rewrite_limit;
    inline_limit;
    cmo_modules;
    jobs;
    check;
    trace;
    dist;
    workers;
    dist_timeout;
  }

let to_string t =
  let level =
    match t.level with O1 -> "+O1" | O2 -> "+O2" | O4 -> "+O4"
  in
  String.concat ""
    [
      level;
      (if t.pbo then " +P" else "");
      (if t.instrument then " +I" else "");
      (match t.selectivity with
      | Some p -> Printf.sprintf " sel=%.1f%%" p
      | None -> "");
      (if t.tiered then " tiered" else "");
    ]
