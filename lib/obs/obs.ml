type event =
  | Begin of {
      name : string;
      cat : string;
      ts : float;
      args : (string * string) list;
    }
  | End of { ts : float; args : (string * string) list }
  | Counter of { name : string; ts : float; series : (string * float) list }
  | Instant of { name : string; cat : string; ts : float }

(* One buffer per (track owner, trace generation).  Events are consed
   newest-first and reversed at export.  [counters] holds the
   cumulative per-track counter table behind [tick]. *)
type tbuf = {
  track : string;
  gen : int;
  order : int;  (* global registration sequence; ties broken by it *)
  mutable events : event list;
  mutable depth : int;  (* open spans, so stray span_end is ignored *)
  counters : (string, (string * float ref) list ref) Hashtbl.t;
}

let enabled_flag = Atomic.make false
let generation = Atomic.make 0
let next_order = Atomic.make 0
let epoch = Atomic.make 0.0

let reg_mutex = Mutex.create ()
let registry : tbuf list ref = ref []  (* newest first; guarded by reg_mutex *)

type dstate = { dtrack : string; mutable dbuf : tbuf option }

(* Per domain: the state its threads share, and one of each thread
   inside [with_track], found by thread id.  Threads of one domain
   switch at allocations, so the list is replaced under a lock; reading
   it needs none. *)
type dslot = {
  shared : dstate;
  mutable named : (int * dstate) list;
  nlock : Mutex.t;
}

let dls : dslot Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        shared = { dtrack = "main"; dbuf = None };
        named = [];
        nlock = Mutex.create ();
      })

let enabled () = Atomic.get enabled_flag

let state () =
  let d = Domain.DLS.get dls in
  match d.named with
  | [] -> d.shared
  | named -> (
    match List.assoc_opt (Thread.id (Thread.self ())) named with
    | Some st -> st
    | None -> d.shared)

let with_track name f =
  let d = Domain.DLS.get dls in
  let id = Thread.id (Thread.self ()) in
  Mutex.protect d.nlock (fun () ->
      d.named <- (id, { dtrack = name; dbuf = None }) :: d.named);
  Fun.protect f ~finally:(fun () ->
      Mutex.protect d.nlock (fun () -> d.named <- List.remove_assoc id d.named))

let buffer () =
  let st = state () in
  let gen = Atomic.get generation in
  match st.dbuf with
  | Some b when b.gen = gen -> b
  | _ ->
    let b =
      {
        track = st.dtrack;
        gen;
        order = Atomic.fetch_and_add next_order 1;
        events = [];
        depth = 0;
        counters = Hashtbl.create 8;
      }
    in
    Mutex.lock reg_mutex;
    registry := b :: !registry;
    Mutex.unlock reg_mutex;
    st.dbuf <- Some b;
    b

let now () = Unix.gettimeofday () -. Atomic.get epoch

let start () =
  Mutex.lock reg_mutex;
  registry := [];
  Mutex.unlock reg_mutex;
  Atomic.incr generation;
  Atomic.set epoch (Unix.gettimeofday ());
  Atomic.set enabled_flag true

let stop () = Atomic.set enabled_flag false

(* ---------- recording ---------- *)

let span_begin ?(cat = "task") ?(args = []) name =
  if enabled () then begin
    let b = buffer () in
    b.depth <- b.depth + 1;
    b.events <- Begin { name; cat; ts = now (); args } :: b.events
  end

let span_end ?(args = []) () =
  if enabled () then begin
    let b = buffer () in
    if b.depth > 0 then begin
      b.depth <- b.depth - 1;
      b.events <- End { ts = now (); args } :: b.events
    end
  end

let with_span ?cat ?args name f =
  if not (enabled ()) then f ()
  else begin
    span_begin ?cat ?args name;
    match f () with
    | v ->
      span_end ();
      v
    | exception e ->
      span_end ();
      raise e
  end

let instant ?(cat = "task") name =
  if enabled () then begin
    let b = buffer () in
    b.events <- Instant { name; cat; ts = now () } :: b.events
  end

let tick name series n =
  if enabled () then begin
    let b = buffer () in
    let row =
      match Hashtbl.find_opt b.counters name with
      | Some r -> r
      | None ->
        let r = ref [] in
        Hashtbl.add b.counters name r;
        r
    in
    let cell =
      match List.assoc_opt series !row with
      | Some c -> c
      | None ->
        let c = ref 0.0 in
        row := !row @ [ (series, c) ];
        c
    in
    cell := !cell +. float_of_int n;
    let series = List.map (fun (s, c) -> (s, !c)) !row in
    b.events <- Counter { name; ts = now (); series } :: b.events
  end

let sample name series =
  if enabled () then begin
    let b = buffer () in
    b.events <- Counter { name; ts = now (); series } :: b.events
  end

(* ---------- merge and export ---------- *)

let snapshot () =
  Mutex.lock reg_mutex;
  let bufs = List.rev !registry in  (* registration order *)
  Mutex.unlock reg_mutex;
  let gen = Atomic.get generation in
  List.filter (fun b -> b.gen = gen) bufs

(* "main" first, then the rest ordered by (length, name) so that
   worker-2 sorts before worker-10. *)
let track_compare a b =
  match (a = "main", b = "main") with
  | true, true -> 0
  | true, false -> -1
  | false, true -> 1
  | false, false ->
    let c = compare (String.length a) (String.length b) in
    if c <> 0 then c else compare a b

let tracks () =
  let bufs = snapshot () in
  let names =
    List.sort_uniq track_compare (List.map (fun b -> b.track) bufs)
  in
  List.map
    (fun name ->
      let events =
        bufs
        |> List.filter (fun b -> b.track = name)
        |> List.concat_map (fun b -> List.rev b.events)
      in
      (name, events))
    names

let counter_totals () =
  let totals = Hashtbl.create 16 in
  List.iter
    (fun b ->
      Hashtbl.iter
        (fun name row ->
          List.iter
            (fun (series, cell) ->
              let key = name ^ "/" ^ series in
              let prev =
                Option.value ~default:0.0 (Hashtbl.find_opt totals key)
              in
              Hashtbl.replace totals key (prev +. !cell))
            !row)
        b.counters)
    (snapshot ());
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

type span_stat = { label : string; spn_count : int; spn_seconds : float }

type summary = {
  track_count : int;
  event_count : int;
  open_spans : int;
  span_stats : span_stat list;
  counters : (string * float) list;
}

let summary () =
  let tracks = tracks () in
  let events = ref 0 in
  let open_spans = ref 0 in
  let order = ref [] in  (* labels, first-seen order, reversed *)
  let stats : (string, int ref * float ref) Hashtbl.t = Hashtbl.create 16 in
  let bucket label =
    match Hashtbl.find_opt stats label with
    | Some b -> b
    | None ->
      let b = (ref 0, ref 0.0) in
      Hashtbl.add stats label b;
      order := label :: !order;
      b
  in
  List.iter
    (fun (_, evs) ->
      let stack = ref [] in
      List.iter
        (fun ev ->
          incr events;
          match ev with
          | Begin { name; cat; ts; _ } ->
            (* Stage spans are few and load-bearing: keep them by
               name.  Everything else (per-function, per-module, per-
               component spans) aggregates by category to stay
               compact. *)
            let label = if cat = "stage" then name else cat in
            stack := (label, ts) :: !stack
          | End { ts; _ } -> (
            match !stack with
            | (label, t0) :: rest ->
              stack := rest;
              let count, seconds = bucket label in
              incr count;
              seconds := !seconds +. (ts -. t0)
            | [] -> ())
          | Counter _ | Instant _ -> ())
        evs;
      open_spans := !open_spans + List.length !stack)
    tracks;
  let span_stats =
    List.rev_map
      (fun label ->
        let count, seconds = Hashtbl.find stats label in
        { label; spn_count = !count; spn_seconds = !seconds })
      !order
    |> List.rev
  in
  {
    track_count = List.length tracks;
    event_count = !events;
    open_spans = !open_spans;
    span_stats;
    counters = counter_totals ();
  }

let pp_summary ppf s =
  Format.fprintf ppf "@[<v>trace: %d events on %d track%s%s" s.event_count
    s.track_count
    (if s.track_count = 1 then "" else "s")
    (if s.open_spans = 0 then ""
     else Printf.sprintf " (%d unclosed spans)" s.open_spans);
  List.iter
    (fun st ->
      Format.fprintf ppf "@,  %-12s %6d span%s %10.3fs" st.label st.spn_count
        (if st.spn_count = 1 then " " else "s")
        st.spn_seconds)
    s.span_stats;
  if s.counters <> [] then begin
    Format.fprintf ppf "@,  counters:";
    List.iter
      (fun (k, v) -> Format.fprintf ppf "@,    %-32s %12.0f" k v)
      s.counters
  end;
  Format.fprintf ppf "@]"

let to_json () =
  let tracks = tracks () in
  let us ts = ts *. 1e6 in
  let args_obj args =
    Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args)
  in
  let events = ref [] in
  let emit e = events := e :: !events in
  emit
    (Json.Obj
       [
         ("name", Json.Str "process_name");
         ("ph", Json.Str "M");
         ("pid", Json.Num 1.0);
         ("tid", Json.Num 0.0);
         ("args", Json.Obj [ ("name", Json.Str "cmoc") ]);
       ]);
  List.iteri
    (fun i (track, evs) ->
      let tid = float_of_int (i + 1) in
      emit
        (Json.Obj
           [
             ("name", Json.Str "thread_name");
             ("ph", Json.Str "M");
             ("pid", Json.Num 1.0);
             ("tid", Json.Num tid);
             ("args", Json.Obj [ ("name", Json.Str track) ]);
           ]);
      let counter_name name =
        if track = "main" then name else name ^ " (" ^ track ^ ")"
      in
      List.iter
        (fun ev ->
          let common ph ts =
            [
              ("ph", Json.Str ph);
              ("ts", Json.Num (us ts));
              ("pid", Json.Num 1.0);
              ("tid", Json.Num tid);
            ]
          in
          match ev with
          | Begin { name; cat; ts; args } ->
            emit
              (Json.Obj
                 (("name", Json.Str name) :: ("cat", Json.Str cat)
                 :: common "B" ts
                 @ (if args = [] then [] else [ ("args", args_obj args) ])))
          | End { ts; args } ->
            emit
              (Json.Obj
                 (common "E" ts
                 @ if args = [] then [] else [ ("args", args_obj args) ]))
          | Counter { name; ts; series } ->
            emit
              (Json.Obj
                 (("name", Json.Str (counter_name name))
                 :: common "C" ts
                 @ [
                      ( "args",
                        Json.Obj
                          (List.map (fun (s, v) -> (s, Json.Num v)) series) );
                   ]))
          | Instant { name; cat; ts } ->
            emit
              (Json.Obj
                 (("name", Json.Str name) :: ("cat", Json.Str cat)
                 :: ("s", Json.Str "t") :: common "i" ts)))
        evs)
    tracks;
  Json.Arr (List.rev !events)

let export () = Json.to_string (to_json ())
