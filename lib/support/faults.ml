module Obs = Cmo_obs.Obs

type fs = Crash | Enospc | Eio | Short | Transient
type net = Drop | Stall | Garble | Reset | Partition
type proc = Kill

(* One site's clock under one plan. *)
type counters = {
  ops : int Atomic.t;
  injections : int Atomic.t;
  sticky_fired : bool Atomic.t;
}

type plan = {
  seed : int;
  fs_faults : (int * fs) list;
  net_faults : (int * net) list;
  proc_faults : (int * proc) list;
  fs_c : counters;
  net_c : counters;
  proc_c : counters;
}

type 'k site = {
  obs : string;  (* Obs category of the site's counters *)
  faults : plan -> (int * 'k) list;
  counters : plan -> counters;
  sticky : 'k -> bool;
  retries_total : int Atomic.t;
}

let fs =
  {
    obs = "io";
    faults = (fun p -> p.fs_faults);
    counters = (fun p -> p.fs_c);
    sticky = (fun k -> k = Crash);
    retries_total = Atomic.make 0;
  }

let net =
  {
    obs = "net";
    faults = (fun p -> p.net_faults);
    counters = (fun p -> p.net_c);
    sticky = (fun k -> k = Partition);
    retries_total = Atomic.make 0;
  }

let proc =
  {
    obs = "proc";
    faults = (fun p -> p.proc_faults);
    counters = (fun p -> p.proc_c);
    sticky = (fun Kill -> true);
    retries_total = Atomic.make 0;
  }

let active_plan : plan option Atomic.t = Atomic.make None

(* ---- the grammar ---- *)

type any = Fs of fs | Net of net | Proc of proc

let kinds =
  [
    ("crash", Fs Crash); ("enospc", Fs Enospc); ("eio", Fs Eio);
    ("short", Fs Short); ("transient", Fs Transient); ("drop", Net Drop);
    ("stall", Net Stall); ("garble", Net Garble); ("reset", Net Reset);
    ("partition", Net Partition); ("kill", Proc Kill);
  ]

let after s i = String.sub s (i + 1) (String.length s - i - 1)

let parse spec =
  let rec go seed acc = function
    | [] -> Ok (seed, List.rev acc)
    | "count" :: rest -> go seed acc rest
    | tok :: rest -> (
      match (String.index_opt tok '@', String.index_opt tok '=') with
      | Some i, _ -> (
        let name = String.sub tok 0 i in
        match (List.assoc_opt name kinds, int_of_string_opt (after tok i)) with
        | None, _ ->
          Error
            (Printf.sprintf "unknown fault kind %S (want %s)" name
               (String.concat ", " (List.map fst kinds)))
        | Some kind, Some k when k >= 1 -> go seed ((k, kind) :: acc) rest
        | Some _, _ ->
          Error
            (Printf.sprintf "bad operation index in %S (want kind@K, K >= 1)"
               tok))
      | None, Some i when String.sub tok 0 i = "seed" -> (
        match int_of_string_opt (after tok i) with
        | Some s -> go s acc rest
        | None -> Error (Printf.sprintf "bad seed in %S" tok))
      | None, _ -> Error (Printf.sprintf "unknown fault-plan token %S" tok))
  in
  match
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  with
  | [] -> Error "empty fault plan"
  | tokens -> go 0 [] tokens

let fresh_counters () =
  { ops = Atomic.make 0; injections = Atomic.make 0; sticky_fired = Atomic.make false }

let install spec =
  match parse spec with
  | Error _ as e -> e
  | Ok (seed, faults) ->
    let pick f = List.filter_map f faults in
    Atomic.set active_plan
      (Some
         {
           seed;
           fs_faults = pick (function k, Fs f -> Some (k, f) | _ -> None);
           net_faults = pick (function k, Net f -> Some (k, f) | _ -> None);
           proc_faults = pick (function k, Proc f -> Some (k, f) | _ -> None);
           fs_c = fresh_counters ();
           net_c = fresh_counters ();
           proc_c = fresh_counters ();
         });
    Ok ()

let clear () = Atomic.set active_plan None

let active () = Atomic.get active_plan <> None

let planned site =
  match Atomic.get active_plan with Some p -> site.faults p | None -> []

(* ---- the site check ---- *)

type 'k check = Pass | Tripped | Fire of 'k * int

let check site =
  match Atomic.get active_plan with
  | None -> Pass
  | Some p ->
    let c = site.counters p in
    if Atomic.get c.sticky_fired then Tripped
    else begin
      let k = 1 + Atomic.fetch_and_add c.ops 1 in
      match List.assoc_opt k (site.faults p) with
      | None -> Pass
      | Some f ->
        Atomic.incr c.injections;
        Obs.tick site.obs "injected" 1;
        if site.sticky f then Atomic.set c.sticky_fired true;
        Fire (f, k)
    end

let on_plan site get =
  match Atomic.get active_plan with Some p -> get (site.counters p) | None -> 0

let tripped site =
  match Atomic.get active_plan with
  | Some p -> Atomic.get (site.counters p).sticky_fired
  | None -> false

let op_count site = on_plan site (fun c -> Atomic.get c.ops)
let injected site = on_plan site (fun c -> Atomic.get c.injections)
let retries site = Atomic.get site.retries_total

(* ---- seeded retries and draws ---- *)

let note_retry site =
  Atomic.incr site.retries_total;
  Obs.tick site.obs "retries" 1

let seed () = match Atomic.get active_plan with Some p -> p.seed | None -> 0

let backoff attempt =
  let g = Prng.create (seed () lxor ((attempt * 0x85ebca6b) land max_int)) in
  Unix.sleepf (0.0005 *. float_of_int (1 lsl attempt) *. (1.0 +. Prng.float g 1.0))

let draw k = Prng.create (seed () lxor ((k * 0x9e3779b9) land max_int))
