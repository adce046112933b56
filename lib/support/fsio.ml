module Obs = Cmo_obs.Obs

exception Crash

exception Corrupt_record of { path : string; offset : int; reason : string }

(* ---- CRC-32 (IEEE 802.3), table-driven ---- *)

(* Built eagerly at module initialisation: a plain [lazy] forced by two
   domains at once raises [CamlinternalLazy.Undefined], and the
   distributed pool's threads checksum frames concurrently. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s =
  let c = ref 0xffffffff in
  String.iter
    (fun ch -> c := crc_table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  Int32.of_int (!c lxor 0xffffffff)

let crc_bits c = Int32.to_int c land 0xffffffff

(* ---- fault plans ---- *)

type kind = Enospc | Eio | Short | Transient | Crash_op

type plan = {
  seed : int;
  faults : (int * kind) list;
  ops : int Atomic.t;
  injections : int Atomic.t;
  mutable crashed : bool;
}

let active : plan option Atomic.t = Atomic.make None

let parse spec =
  let tokens =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if tokens = [] then Error "empty fault plan"
  else
    let seed = ref 0 in
    let faults = ref [] in
    let err = ref None in
    let fail fmt = Printf.ksprintf (fun m -> err := Some m) fmt in
    List.iter
      (fun tok ->
        if !err <> None then ()
        else if tok = "count" then ()
        else
          match String.index_opt tok '@' with
          | Some i -> (
            let kind = String.sub tok 0 i in
            let at = String.sub tok (i + 1) (String.length tok - i - 1) in
            match (int_of_string_opt at, kind) with
            | None, _ | Some 0, _ ->
              fail "bad operation index in %S (want kind@K, K >= 1)" tok
            | Some k, _ when k < 1 ->
              fail "bad operation index in %S (want kind@K, K >= 1)" tok
            | Some k, "crash" -> faults := (k, Crash_op) :: !faults
            | Some k, "enospc" -> faults := (k, Enospc) :: !faults
            | Some k, "eio" -> faults := (k, Eio) :: !faults
            | Some k, "short" -> faults := (k, Short) :: !faults
            | Some k, "transient" -> faults := (k, Transient) :: !faults
            | Some _, _ ->
              fail
                "unknown fault kind %S (want crash, enospc, eio, short or \
                 transient)"
                kind)
          | None -> (
            match String.index_opt tok '=' with
            | Some i when String.sub tok 0 i = "seed" -> (
              match
                int_of_string_opt
                  (String.sub tok (i + 1) (String.length tok - i - 1))
              with
              | Some s -> seed := s
              | None -> fail "bad seed in %S" tok)
            | _ -> fail "unknown fault-plan token %S" tok))
      tokens;
    match !err with
    | Some m -> Error m
    | None ->
      Ok
        {
          seed = !seed;
          faults = List.rev !faults;
          ops = Atomic.make 0;
          injections = Atomic.make 0;
          crashed = false;
        }

let install_plan spec =
  match parse spec with
  | Ok p ->
    Atomic.set active (Some p);
    Ok ()
  | Error _ as e -> e

let clear_plan () = Atomic.set active None

let plan_active () = Atomic.get active <> None

let op_count () =
  match Atomic.get active with Some p -> Atomic.get p.ops | None -> 0

let injected () =
  match Atomic.get active with Some p -> Atomic.get p.injections | None -> 0

let retries_total = Atomic.make 0

let retries () = Atomic.get retries_total

(* How much of a torn write survived: a deterministic function of the
   plan seed and the operation index, covering the full [0, len]
   range so a sweep reaches "nothing written" and "everything written
   but not yet durable" as well as every cut in between. *)
let prefix_len plan k len =
  if len <= 0 then 0
  else
    let g = Prng.create (plan.seed lxor ((k * 0x9e3779b9) land max_int)) in
    Prng.int g (len + 1)

(* What the injection layer tells a primitive to do about the
   operation it is about to perform.  With no plan installed the
   check is the single [Atomic.get]. *)
type verdict =
  | Proceed
  | Inert  (* post-crash write: do nothing, report success *)
  | Cut of int  (* write this prefix, then raise [Crash] *)
  | Shortw of int  (* write this prefix, then raise [Sys_error] *)
  | Flaky of int  (* fail this many attempts transiently, then proceed *)

let verdict ~read op path len =
  match Atomic.get active with
  | None -> Proceed
  | Some p ->
    if p.crashed then if read then raise Crash else Inert
    else begin
      let k = 1 + Atomic.fetch_and_add p.ops 1 in
      match List.assoc_opt k p.faults with
      | None -> Proceed
      | Some f -> (
        Atomic.incr p.injections;
        Obs.tick "io" "injected" 1;
        let fail msg name =
          raise
            (Sys_error
               (Printf.sprintf "%s: %s (injected %s at io op %d, %s)" path msg
                  name k op))
        in
        match f with
        | Enospc -> fail "No space left on device" "enospc"
        | Eio -> fail "Input/output error" "eio"
        | Transient -> Flaky 2
        | Crash_op ->
          p.crashed <- true;
          if read then raise Crash else Cut (prefix_len p k len)
        | Short ->
          if read then fail "Input/output error" "short"
          else Shortw (prefix_len p k len))
    end

let flaky_of = function
  | Proceed -> 0
  | Flaky n -> n
  | Inert | Cut _ | Shortw _ -> assert false (* impossible for reads *)

(* ---- bounded retries with seeded-jitter backoff ---- *)

let max_attempts = 3

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m > 0 && at 0

let is_transient_msg m =
  contains m "Interrupted system call"
  || contains m "temporarily unavailable"
  || contains m "Resource temporarily"
  || contains m "injected transient"

let backoff attempt =
  let seed = match Atomic.get active with Some p -> p.seed | None -> 0 in
  let g = Prng.create (seed lxor ((attempt * 0x85ebca6b) land max_int)) in
  Unix.sleepf (0.0005 *. float_of_int (1 lsl attempt) *. (1.0 +. Prng.float g 1.0))

let note_retry () =
  Atomic.incr retries_total;
  Obs.tick "io" "retries" 1

(* One logical operation's syscall, with up to [max_attempts] tries
   for transient failures.  The first [flaky] attempts fail by
   injection; a real error retries only when it looks EINTR/EAGAIN
   class.  Retries do not re-enter [verdict], so the operation count
   stays attempt-independent. *)
let with_retries ~flaky ~path ~op f =
  let rec go attempt =
    if attempt <= flaky then
      if attempt >= max_attempts then
        raise
          (Sys_error
             (Printf.sprintf "%s: persistent transient failure (%s)" path op))
      else begin
        note_retry ();
        backoff attempt;
        go (attempt + 1)
      end
    else
      try f ()
      with Sys_error m when attempt < max_attempts && is_transient_msg m ->
        note_retry ();
        backoff attempt;
        go (attempt + 1)
  in
  go 1

(* Write-class operation with no meaningful partial state: fsync,
   rename, remove, mkdir, truncate. *)
let simple_op op path f =
  match verdict ~read:false op path 0 with
  | Inert -> ()
  | Proceed -> with_retries ~flaky:0 ~path ~op f
  | Flaky n -> with_retries ~flaky:n ~path ~op f
  | Cut _ -> raise Crash
  | Shortw _ ->
    raise (Sys_error (Printf.sprintf "%s: Input/output error (%s)" path op))

let sys_error_of_unix path e = Sys_error (path ^ ": " ^ Unix.error_message e)

(* ---- whole files ---- *)

let read_file path =
  let flaky = flaky_of (verdict ~read:true "read" path 0) in
  with_retries ~flaky ~path ~op:"read" @@ fun () ->
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fsync_path path =
  match Unix.openfile path [ Unix.O_WRONLY ] 0 with
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        try Unix.fsync fd
        with Unix.Unix_error (e, _, _) -> raise (sys_error_of_unix path e))
  | exception Unix.Unix_error (e, _, _) -> raise (sys_error_of_unix path e)

let atomic_write path data =
  let tmp = path ^ ".tmp" in
  let write_tmp n_opt =
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        (match n_opt with
        | None -> output_string oc data
        | Some n -> output_substring oc data 0 n);
        flush oc)
  in
  let inert = ref false in
  (match verdict ~read:false "write" tmp (String.length data) with
  | Inert -> inert := true
  | Proceed -> with_retries ~flaky:0 ~path:tmp ~op:"write" (fun () -> write_tmp None)
  | Flaky n -> with_retries ~flaky:n ~path:tmp ~op:"write" (fun () -> write_tmp None)
  | Cut n ->
    (try write_tmp (Some n) with Sys_error _ -> ());
    raise Crash
  | Shortw n ->
    (try write_tmp (Some n) with Sys_error _ -> ());
    raise (Sys_error (tmp ^ ": short write")));
  if not !inert then simple_op "fsync" tmp (fun () -> fsync_path tmp);
  if not !inert then simple_op "rename" path (fun () -> Sys.rename tmp path)

let remove path = simple_op "remove" path (fun () -> Sys.remove path)

let rename src dst = simple_op "rename" dst (fun () -> Sys.rename src dst)

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdirs parent;
    simple_op "mkdir" dir (fun () ->
        try Sys.mkdir dir 0o755
        with Sys_error _ when Sys.file_exists dir -> ())
  end

let truncate path len =
  simple_op "truncate" path (fun () ->
      try Unix.truncate path len
      with Unix.Unix_error (e, _, _) -> raise (sys_error_of_unix path e))

(* ---- framed record streams ---- *)

let record_magic = "CMR1"

let frame_overhead = 12

let le32 n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr (n land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 3 (Char.chr ((n lsr 24) land 0xff));
  Bytes.unsafe_to_string b

let get_le32 s i =
  Char.code s.[i]
  lor (Char.code s.[i + 1] lsl 8)
  lor (Char.code s.[i + 2] lsl 16)
  lor (Char.code s.[i + 3] lsl 24)

let frame payload =
  record_magic ^ le32 (String.length payload) ^ le32 (crc_bits (crc32 payload))
  ^ payload

type scan =
  | Frame of { payload : string; next : int }
  | Need of int
  | Bad of string

let scan_frame s ~pos =
  let n = String.length s in
  if pos < 0 || pos > n then invalid_arg "Fsio.scan_frame";
  if n - pos < frame_overhead then Need (frame_overhead - (n - pos))
  else if String.sub s pos 4 <> record_magic then Bad "bad record magic"
  else
    let len = get_le32 s (pos + 4) in
    if len < 0 then Bad "negative record length"
    else if n - pos - frame_overhead < len then
      Need (len - (n - pos - frame_overhead))
    else
      let payload = String.sub s (pos + frame_overhead) len in
      if crc_bits (crc32 payload) <> get_le32 s (pos + 8) then Bad "crc mismatch"
      else Frame { payload; next = pos + frame_overhead + len }

let valid_prefix_string s =
  let rec walk pos =
    match scan_frame s ~pos with
    | Frame { next; _ } -> walk next
    | Need _ | Bad _ -> pos
  in
  walk 0

(* ---- framed messages over a file descriptor ----

   Raw fd I/O on purpose: a pipe or socket is not a durability
   surface, so these stay outside the fault-injection chokepoint — a
   fault plan aimed at a build must not corrupt the transport carrying
   it.  Shared by the build-server wire protocol and the distributed
   partition-worker pipes. *)

let rec write_all fd s off len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (off + n) (len - n)
  end

let write_framed fd payload =
  let data = frame payload in
  write_all fd data 0 (String.length data)

(* Read exactly [n] bytes; [`Eof got] when the peer closes early,
   [`Timeout] when [timeout_s] elapses between reads with the count
   still short.  The timeout is the distributed build's hang bound: a
   wedged worker degrades to local recompute instead of stalling the
   link step forever. *)
let read_exact ?timeout_s fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off = n then Ok (Bytes.unsafe_to_string buf)
    else begin
      let ready =
        match timeout_s with
        | None -> true
        | Some t -> (
          match Unix.select [ fd ] [] [] t with
          | [], _, _ -> false
          | _ -> true
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> true)
      in
      if not ready then Error `Timeout
      else
        match Unix.read fd buf off (n - off) with
        | 0 -> Error (`Eof off)
        | k -> go (off + k)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    end
  in
  go 0

let read_framed ?timeout_s ?(max_payload = 1 lsl 26) fd =
  match read_exact ?timeout_s fd frame_overhead with
  | Error `Timeout -> Error `Timeout
  | Error (`Eof 0) -> Error `Eof
  | Error (`Eof _) -> Error (`Bad "connection closed inside a frame header")
  | Ok header -> (
    match scan_frame header ~pos:0 with
    | Bad m -> Error (`Bad m)
    | Frame { payload; _ } -> Ok payload (* zero-length payload *)
    | Need n when n > max_payload -> Error (`Bad "oversized frame")
    | Need n -> (
      match read_exact ?timeout_s fd n with
      | Error `Timeout -> Error `Timeout
      | Error (`Eof _) -> Error (`Bad "connection closed inside a frame body")
      | Ok body -> (
        match scan_frame (header ^ body) ~pos:0 with
        | Frame { payload; _ } -> Ok payload
        | Bad m -> Error (`Bad m)
        | Need _ -> Error (`Bad "incomplete frame"))))

type appender = {
  apath : string;
  mutable oc : out_channel option;  (* None once closed, or born inert *)
  mutable pos : int;
}

let open_append ?(trunc = false) path =
  let really () =
    let flags =
      [ Open_wronly; Open_creat; Open_binary ]
      @ if trunc then [ Open_trunc ] else [ Open_append ]
    in
    let oc = open_out_gen flags 0o644 path in
    { apath = path; oc = Some oc; pos = out_channel_length oc }
  in
  match verdict ~read:false "open" path 0 with
  | Inert -> { apath = path; oc = None; pos = 0 }
  | Proceed -> with_retries ~flaky:0 ~path ~op:"open" really
  | Flaky n -> with_retries ~flaky:n ~path ~op:"open" really
  | Cut _ -> raise Crash
  | Shortw _ -> raise (Sys_error (path ^ ": Input/output error (open)"))

let append_pos a = a.pos

let append_record a payload =
  let data = frame payload in
  let len = String.length data in
  let start = a.pos in
  let write n_opt oc =
    (match n_opt with
    | None -> output_string oc data
    | Some n -> output_substring oc data 0 n);
    flush oc
  in
  match verdict ~read:false "append" a.apath len with
  | Inert ->
    a.pos <- start + len;
    start
  | (Proceed | Flaky _) as v -> (
    match a.oc with
    | None -> raise (Sys_error (a.apath ^ ": append to a closed stream"))
    | Some oc ->
      with_retries ~flaky:(flaky_of v) ~path:a.apath ~op:"append" (fun () ->
          write None oc);
      a.pos <- start + len;
      start)
  | Cut n ->
    (match a.oc with
    | Some oc -> ( try write (Some n) oc with Sys_error _ -> ())
    | None -> ());
    raise Crash
  | Shortw n ->
    (match a.oc with
    | Some oc ->
      (try write (Some n) oc with Sys_error _ -> ());
      (* Repair the torn tail back to the record boundary so one
         failed append cannot poison the records written after it. *)
      (try Unix.ftruncate (Unix.descr_of_out_channel oc) start
       with Unix.Unix_error _ | Sys_error _ -> ())
    | None -> ());
    raise
      (Sys_error
         (Printf.sprintf "%s: short write (record at offset %d)" a.apath start))

let close_append ?(fsync = false) a =
  match a.oc with
  | None -> ()
  | Some oc ->
    a.oc <- None;
    let crashed =
      match Atomic.get active with Some p -> p.crashed | None -> false
    in
    if not crashed && fsync then (
      try
        simple_op "fsync" a.apath (fun () ->
            flush oc;
            try Unix.fsync (Unix.descr_of_out_channel oc)
            with Unix.Unix_error (e, _, _) -> raise (sys_error_of_unix a.apath e))
      with Sys_error _ -> ());
    close_out_noerr oc

let read_record ?expect_crc path ~offset ~length =
  let flaky = flaky_of (verdict ~read:true "read" path 0) in
  with_retries ~flaky ~path ~op:"read" @@ fun () ->
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let size = in_channel_length ic in
  let bad reason = raise (Corrupt_record { path; offset; reason }) in
  if offset < 0 || offset + frame_overhead > size then bad "offset beyond file";
  seek_in ic offset;
  let header = really_input_string ic frame_overhead in
  if String.sub header 0 4 <> record_magic then bad "bad record magic";
  if get_le32 header 4 <> length then bad "length mismatch";
  if offset + frame_overhead + length > size then bad "record beyond file";
  let payload = really_input_string ic length in
  let crc = crc_bits (crc32 payload) in
  if crc <> get_le32 header 8 then bad "crc mismatch";
  (match expect_crc with
  | Some c when crc_bits c <> crc -> bad "crc differs from the index"
  | Some _ | None -> ());
  payload

let read_span path ~offset ~length =
  let flaky = flaky_of (verdict ~read:true "read" path 0) in
  with_retries ~flaky ~path ~op:"read" @@ fun () ->
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let size = in_channel_length ic in
  if offset >= size || offset < 0 then ""
  else begin
    seek_in ic offset;
    really_input_string ic (min length (size - offset))
  end

let valid_prefix path =
  if not (Sys.file_exists path) then (0, 0)
  else begin
    let flaky = flaky_of (verdict ~read:true "scan" path 0) in
    with_retries ~flaky ~path ~op:"scan" @@ fun () ->
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let size = in_channel_length ic in
    let rec walk off =
      if off + frame_overhead > size then off
      else begin
        seek_in ic off;
        let header = really_input_string ic frame_overhead in
        if String.sub header 0 4 <> record_magic then off
        else
          let len = get_le32 header 4 in
          if len < 0 || off + frame_overhead + len > size then off
          else walk (off + frame_overhead + len)
      end
    in
    (walk 0, size)
  end
