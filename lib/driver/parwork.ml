(* A small fixed-size Domain pool.  Tasks are closures pushed on a
   mutex/condition queue; each future carries its own mutex so awaits
   don't contend with submissions.  Exceptions are captured with their
   backtrace and re-raised at [await] — the caller's control flow sees
   the same failure the sequential run would, at the same position. *)

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  mutable state : 'a state;
  fmutex : Mutex.t;
  fcond : Condition.t;
}

type pool = {
  jobs : int;
  queue : (unit -> unit) Queue.t;
  qmutex : Mutex.t;
  qcond : Condition.t;
  mutable stopping : bool;
  mutable joins : (unit -> unit) list;  (* one per worker *)
}

let worker pool =
  (* Drain the queue before honoring the stop flag, so a shutdown
     never strands a submitted task (and its awaiting future). *)
  let rec take () =
    match Queue.take_opt pool.queue with
    | Some task -> Some task
    | None ->
      if pool.stopping then None
      else begin
        Condition.wait pool.qcond pool.qmutex;
        take ()
      end
  in
  let rec loop () =
    Mutex.lock pool.qmutex;
    let task = take () in
    Mutex.unlock pool.qmutex;
    match task with
    | None -> ()
    | Some task ->
      task ();
      loop ()
  in
  loop ()

let create ~threads ~jobs =
  let jobs = max 1 jobs in
  let pool =
    {
      jobs;
      queue = Queue.create ();
      qmutex = Mutex.create ();
      qcond = Condition.create ();
      stopping = false;
      joins = [];
    }
  in
  if jobs > 1 then
    pool.joins <-
      List.init jobs (fun i ->
          (* Name the worker's trace track by pool index.  Pools are
             created and joined sequentially, so successive pools
             reuse the same names and their events merge
             chronologically into one track per index. *)
          let run () =
            Cmo_obs.Obs.with_track (Printf.sprintf "worker-%d" (i + 1))
            @@ fun () ->
            Cmo_obs.Obs.with_span ~cat:"worker" "worker" (fun () ->
                worker pool)
          in
          if threads then
            let t = Thread.create run () in
            fun () -> Thread.join t
          else
            let d = Domain.spawn run in
            fun () -> Domain.join d);
  pool

let jobs pool = pool.jobs

let run_to_state f =
  match f () with
  | v -> Done v
  | exception e -> Failed (e, Printexc.get_raw_backtrace ())

let submit pool f =
  let fut = { state = Pending; fmutex = Mutex.create (); fcond = Condition.create () } in
  if pool.joins = [] then fut.state <- run_to_state f
  else begin
    let task () =
      let result = run_to_state f in
      Mutex.lock fut.fmutex;
      fut.state <- result;
      Condition.broadcast fut.fcond;
      Mutex.unlock fut.fmutex
    in
    Mutex.lock pool.qmutex;
    Queue.add task pool.queue;
    Condition.signal pool.qcond;
    Mutex.unlock pool.qmutex
  end;
  fut

let await fut =
  Mutex.lock fut.fmutex;
  let rec settled () =
    match fut.state with
    | Pending ->
      Condition.wait fut.fcond fut.fmutex;
      settled ()
    | Done _ | Failed _ -> fut.state
  in
  let result = settled () in
  Mutex.unlock fut.fmutex;
  match result with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

let map pool f xs =
  let futures = List.map (fun x -> submit pool (fun () -> f x)) xs in
  List.map await futures

let shutdown pool =
  Mutex.lock pool.qmutex;
  pool.stopping <- true;
  Condition.broadcast pool.qcond;
  Mutex.unlock pool.qmutex;
  List.iter (fun join -> join ()) pool.joins;
  pool.joins <- []

let with_pool ?(threads = false) ~jobs f =
  let pool = create ~threads ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* [Lazy.force] raises [Undefined] when two domains race to force the
   same suspension, so memoize behind a mutex instead. *)
let memo_locked f =
  let m = Mutex.create () in
  let cell = ref None in
  fun () ->
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) @@ fun () ->
    match !cell with
    | Some v -> v
    | None ->
      let v = f () in
      cell := Some v;
      v
