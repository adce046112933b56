let log_src = Logs.Src.create "cmo.naim" ~doc:"NAIM loader traffic"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Func = Cmo_il.Func
module Ilmod = Cmo_il.Ilmod
module Ilcodec = Cmo_il.Ilcodec
module Size = Cmo_il.Size
module Intern = Cmo_support.Intern
module Codec = Cmo_support.Codec
module Obs = Cmo_obs.Obs

type level = Off | Ir_compaction | St_compaction | Offloading

type config = {
  machine_memory : int;
  ir_threshold : float;
  st_threshold : float;
  offload_threshold : float;
  cache_fraction : float;
  forced_level : level option;
}

let default_config =
  {
    machine_memory = 256 * 1024 * 1024;
    ir_threshold = 0.25;
    st_threshold = 0.45;
    offload_threshold = 0.70;
    cache_fraction = 0.30;
    forced_level = None;
  }

type stats = {
  acquires : int;
  cache_hits : int;
  uncompactions : int;
  repo_loads : int;
  compactions : int;
  offloads : int;
  symtab_compactions : int;
}

let merge_stats a b =
  {
    acquires = a.acquires + b.acquires;
    cache_hits = a.cache_hits + b.cache_hits;
    uncompactions = a.uncompactions + b.uncompactions;
    repo_loads = a.repo_loads + b.repo_loads;
    compactions = a.compactions + b.compactions;
    offloads = a.offloads + b.offloads;
    symtab_compactions = a.symtab_compactions + b.symtab_compactions;
  }

type pool_state =
  | Expanded of Func.t
  | Compacted of string
  | Offloaded of Repository.handle

type pool = {
  fname : string;
  pool_module : string;
  arity : int;  (* interface datum: readable without expanding *)
  mutable state : pool_state;
  mutable expanded_bytes : int;  (* modeled size of the expanded form *)
  mutable compacted_bytes : int;
      (* modeled resident size of the compacted form, charged while
         Compacted.  Both sizes are measured together, once per
         mutation: at registration and at every [update]. *)
  mutable retained : string option;
      (* While Expanded: the bytes it was decoded from, as long as the
         routine is unmodified since.  Charged to [Ir_compacted] at
         their length; compaction reuses them instead of encoding. *)
  mutable pins : int;
  mutable last_touch : int;  (* tick of the last acquire (or creation) *)
  mutable pending : bool;  (* unpinned and expanded: eviction candidate *)
}

(* Pending pools keyed by [last_touch].  Every tick is handed out once,
   so keys are unique and the minimum binding is the LRU victim. *)
module Lru = Map.Make (Int)

type module_rec = {
  mname : string;
  globals : Ilmod.global list;
  names : Intern.t;
  mutable symtab_bytes : int;
  mutable symtab_compact_bytes : int;
  mutable symtab_compacted : bool;
  mutable funcs_rev : string list;
  mutable expanded_count : int;
}

type t = {
  config : config;
  mem : Memstats.t;
  repo : Repository.t;
  owns_repo : bool;
  pools : (string, pool) Hashtbl.t;
  modules : (string, module_rec) Hashtbl.t;
  mutable module_order_rev : string list;
  mutable func_order_rev : string list;
  mutable clock : int;
  (* Indexes of the lazy unloader, maintained at every transition so a
     release costs O(log pools) instead of scans over every pool and
     module. *)
  mutable pending_total : int;  (* sum of [expanded_bytes] over pending pools *)
  mutable lru : pool Lru.t;  (* the pending pools *)
  idle : (string, module_rec) Hashtbl.t;
      (* modules with no expanded routine and an uncompacted symtab *)
  mutable s_acquires : int;
  mutable s_cache_hits : int;
  mutable s_uncompactions : int;
  mutable s_repo_loads : int;
  mutable s_compactions : int;
  mutable s_offloads : int;
  mutable s_symtab_compactions : int;
}

let create ?repo config mem =
  let owns_repo = repo = None in
  let repo = match repo with Some r -> r | None -> Repository.in_memory () in
  {
    config;
    mem;
    repo;
    owns_repo;
    pools = Hashtbl.create 512;
    modules = Hashtbl.create 64;
    module_order_rev = [];
    func_order_rev = [];
    clock = 0;
    pending_total = 0;
    lru = Lru.empty;
    idle = Hashtbl.create 64;
    s_acquires = 0;
    s_cache_hits = 0;
    s_uncompactions = 0;
    s_repo_loads = 0;
    s_compactions = 0;
    s_offloads = 0;
    s_symtab_compactions = 0;
  }

let memstats t = t.mem

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let level t =
  match t.config.forced_level with
  | Some l -> l
  | None ->
    let r = float_of_int (Memstats.resident t.mem) in
    let mm = float_of_int t.config.machine_memory in
    if r > t.config.offload_threshold *. mm then Offloading
    else if r > t.config.st_threshold *. mm then St_compaction
    else if r > t.config.ir_threshold *. mm then Ir_compaction
    else Off

let find_pool t fname =
  match Hashtbl.find_opt t.pools fname with
  | Some p -> p
  | None -> raise Not_found

let find_module t mname = Hashtbl.find t.modules mname

(* --- index maintenance --- *)

let set_pending t pool =
  if not pool.pending then begin
    pool.pending <- true;
    t.pending_total <- t.pending_total + pool.expanded_bytes;
    t.lru <- Lru.add pool.last_touch pool t.lru
  end

let clear_pending t pool =
  if pool.pending then begin
    pool.pending <- false;
    t.pending_total <- t.pending_total - pool.expanded_bytes;
    t.lru <- Lru.remove pool.last_touch t.lru
  end

(* Call after any change to a module's [expanded_count] or
   [symtab_compacted]. *)
let sync_idle t m =
  if m.expanded_count = 0 && not m.symtab_compacted then
    Hashtbl.replace t.idle m.mname m
  else Hashtbl.remove t.idle m.mname

(* --- symbol-table pool state transitions --- *)

let encode_symtab (m : module_rec) =
  let w = Codec.Writer.create () in
  Codec.Writer.string w m.mname;
  let names = ref [] in
  Intern.iter m.names (fun _ s -> names := s :: !names);
  Codec.Writer.list w (Codec.Writer.string w) (List.rev !names);
  Codec.Writer.uvarint w (List.length m.globals);
  List.iter
    (fun (g : Ilmod.global) ->
      Codec.Writer.string w g.Ilmod.gname;
      Codec.Writer.uvarint w g.Ilmod.size;
      Codec.Writer.bool w g.Ilmod.exported;
      Codec.Writer.array w (Codec.Writer.int64 w) g.Ilmod.init)
    m.globals;
  Codec.Writer.length w

let compact_symtab t m =
  if not m.symtab_compacted then begin
    m.symtab_compact_bytes <- encode_symtab m;
    Memstats.release t.mem Memstats.Symtab_expanded m.symtab_bytes;
    Memstats.charge t.mem Memstats.Symtab_compacted m.symtab_compact_bytes;
    m.symtab_compacted <- true;
    sync_idle t m;
    t.s_symtab_compactions <- t.s_symtab_compactions + 1;
    Obs.tick "naim.loader" "symtab_compactions" 1
  end

let expand_symtab t m =
  if m.symtab_compacted then begin
    Memstats.release t.mem Memstats.Symtab_compacted m.symtab_compact_bytes;
    Memstats.charge t.mem Memstats.Symtab_expanded m.symtab_bytes;
    m.symtab_compacted <- false;
    sync_idle t m
  end

(* --- pool state transitions --- *)

let retain t pool bytes =
  Memstats.charge t.mem Memstats.Ir_compacted (String.length bytes);
  pool.retained <- Some bytes

let drop_retained t pool =
  Option.iter
    (fun bytes ->
      Memstats.release t.mem Memstats.Ir_compacted (String.length bytes);
      pool.retained <- None)
    pool.retained

let compact_pool t pool =
  match pool.state with
  | Expanded f ->
    let m = find_module t pool.pool_module in
    let bytes =
      match pool.retained with
      | Some bytes ->
        drop_retained t pool;
        Obs.tick "naim.loader" "reused_encodings" 1;
        bytes
      | None ->
        expand_symtab t m;  (* encoding needs the name table live *)
        Ilcodec.encode_func ~names:m.names f
    in
    (* The resident compacted form is charged at its modeled
       relocatable size, not the (much denser) serialized stream. *)
    Memstats.release t.mem Memstats.Ir_expanded pool.expanded_bytes;
    Memstats.charge t.mem Memstats.Ir_compacted pool.compacted_bytes;
    pool.state <- Compacted bytes;
    clear_pending t pool;
    m.expanded_count <- m.expanded_count - 1;
    sync_idle t m;
    t.s_compactions <- t.s_compactions + 1;
    Obs.tick "naim.loader" "compactions" 1;
    Log.debug (fun log ->
        log "compacted %s (%d -> %d bytes)" pool.fname pool.expanded_bytes
          pool.compacted_bytes)
  | Compacted _ | Offloaded _ -> ()

let offload_pool t pool =
  compact_pool t pool;
  match pool.state with
  | Compacted bytes -> (
    match Repository.store t.repo bytes with
    | handle ->
      Memstats.release t.mem Memstats.Ir_compacted pool.compacted_bytes;
      pool.state <- Offloaded handle;
      t.s_offloads <- t.s_offloads + 1;
      Obs.tick "naim.loader" "offloads" 1;
      Log.debug (fun log -> log "offloaded %s to the repository" pool.fname)
    | exception Sys_error m ->
      (* An unwritable repository costs memory headroom, not the
         build: the pool simply stays resident in compacted form. *)
      Obs.tick "naim.loader" "offload_skipped" 1;
      Log.warn (fun log ->
          log "repository store failed (%s); keeping %s in memory" m pool.fname))
  | Expanded _ | Offloaded _ -> ()

let expand_pool t pool =
  match pool.state with
  | Expanded f ->
    t.s_cache_hits <- t.s_cache_hits + 1;
    Obs.tick "naim.loader" "cache_hits" 1;
    f
  | Compacted bytes ->
    let m = find_module t pool.pool_module in
    expand_symtab t m;
    let f = Ilcodec.decode_func ~names:m.names bytes in
    Memstats.release t.mem Memstats.Ir_compacted pool.compacted_bytes;
    Memstats.charge t.mem Memstats.Ir_expanded pool.expanded_bytes;
    retain t pool bytes;
    pool.state <- Expanded f;
    m.expanded_count <- m.expanded_count + 1;
    sync_idle t m;
    t.s_uncompactions <- t.s_uncompactions + 1;
    Obs.tick "naim.loader" "uncompactions" 1;
    f
  | Offloaded handle ->
    let m = find_module t pool.pool_module in
    expand_symtab t m;
    let bytes = Repository.fetch t.repo handle in
    let f = Ilcodec.decode_func ~names:m.names bytes in
    Memstats.charge t.mem Memstats.Ir_expanded pool.expanded_bytes;
    retain t pool bytes;
    pool.state <- Expanded f;
    m.expanded_count <- m.expanded_count + 1;
    sync_idle t m;
    t.s_repo_loads <- t.s_repo_loads + 1;
    t.s_uncompactions <- t.s_uncompactions + 1;
    Obs.tick "naim.loader" "repo_loads" 1;
    Obs.tick "naim.loader" "uncompactions" 1;
    f

(* --- the lazy unloader --- *)

(* Compact every idle module's symbol table.  The set is snapshotted
   because [compact_symtab] removes each module from it.  The order is
   arbitrary; it cannot move the memory peak while every compaction
   shrinks its table (compact forms measure under half the expanded
   size on mcad1). *)
let compact_idle_symtabs t =
  Hashtbl.fold (fun _ m acc -> m :: acc) t.idle []
  |> List.iter (compact_symtab t)

let evict t =
  let lvl = level t in
  if lvl <> Off then begin
    let budget =
      int_of_float (t.config.cache_fraction *. float_of_int t.config.machine_memory)
    in
    let continue_ = ref true in
    while !continue_ && t.pending_total > budget do
      match Lru.min_binding_opt t.lru with
      | None -> continue_ := false
      | Some (_, pool) -> (
        match lvl with
        | Off -> continue_ := false
        | Ir_compaction | St_compaction -> compact_pool t pool
        | Offloading -> offload_pool t pool)
    done;
    match lvl with
    | St_compaction | Offloading -> compact_idle_symtabs t
    | Off | Ir_compaction -> ()
  end

let new_pool t ~module_name (f : Func.t) =
  let expanded_bytes, compacted_bytes = Size.func_charges f in
  {
    fname = f.Func.name;
    pool_module = module_name;
    arity = f.Func.arity;
    state = Expanded f;
    expanded_bytes;
    compacted_bytes;
    retained = None;
    pins = 0;
    last_touch = tick t;
    pending = false;
  }

(* --- public API --- *)

let register_module t (m : Ilmod.t) =
  if Hashtbl.mem t.modules m.Ilmod.mname then
    invalid_arg (Printf.sprintf "Loader: module %s already registered" m.Ilmod.mname);
  let names = Intern.create () in
  let rec_ =
    {
      mname = m.Ilmod.mname;
      globals = m.Ilmod.globals;
      names;
      symtab_bytes = Size.module_symtab_expanded_bytes m;
      symtab_compact_bytes = 0;
      symtab_compacted = false;
      funcs_rev = [];
      expanded_count = 0;
    }
  in
  Hashtbl.replace t.modules m.Ilmod.mname rec_;
  t.module_order_rev <- m.Ilmod.mname :: t.module_order_rev;
  Memstats.charge t.mem Memstats.Symtab_expanded rec_.symtab_bytes;
  List.iter
    (fun (f : Func.t) ->
      if Hashtbl.mem t.pools f.Func.name then
        invalid_arg (Printf.sprintf "Loader: function %s already registered" f.Func.name);
      let pool = new_pool t ~module_name:m.Ilmod.mname f in
      Hashtbl.replace t.pools f.Func.name pool;
      set_pending t pool;
      t.func_order_rev <- f.Func.name :: t.func_order_rev;
      rec_.funcs_rev <- f.Func.name :: rec_.funcs_rev;
      rec_.expanded_count <- rec_.expanded_count + 1;
      Memstats.charge t.mem Memstats.Ir_expanded pool.expanded_bytes)
    m.Ilmod.funcs;
  m.Ilmod.funcs <- [];
  sync_idle t rec_;
  evict t

let acquire t fname =
  let pool = find_pool t fname in
  t.s_acquires <- t.s_acquires + 1;
  Obs.tick "naim.loader" "acquires" 1;
  clear_pending t pool;  (* before the re-key: the index holds the old tick *)
  pool.last_touch <- tick t;
  let f = expand_pool t pool in
  pool.pins <- pool.pins + 1;
  f

let release t fname =
  let pool = find_pool t fname in
  if pool.pins <= 0 then
    invalid_arg (Printf.sprintf "Loader.release: %s is not pinned" fname);
  pool.pins <- pool.pins - 1;
  if pool.pins = 0 then begin
    set_pending t pool;
    evict t
  end

let update t (f : Func.t) =
  let pool = find_pool t f.Func.name in
  (match pool.state with
  | Expanded current when current == f -> ()
  | Expanded _ ->
    invalid_arg
      (Printf.sprintf "Loader.update: %s is not the acquired value" f.Func.name)
  | Compacted _ | Offloaded _ ->
    invalid_arg (Printf.sprintf "Loader.update: %s is not expanded" f.Func.name));
  drop_retained t pool;
  let new_bytes, compacted_bytes = Size.func_charges f in
  if new_bytes > pool.expanded_bytes then
    Memstats.charge t.mem Memstats.Ir_expanded (new_bytes - pool.expanded_bytes)
  else
    Memstats.release t.mem Memstats.Ir_expanded (pool.expanded_bytes - new_bytes);
  if pool.pending then
    t.pending_total <- t.pending_total + new_bytes - pool.expanded_bytes;
  pool.expanded_bytes <- new_bytes;
  pool.compacted_bytes <- compacted_bytes

let add_func t ~module_name (f : Func.t) =
  let m = find_module t module_name in
  if Hashtbl.mem t.pools f.Func.name then
    invalid_arg (Printf.sprintf "Loader.add_func: %s already exists" f.Func.name);
  expand_symtab t m;
  let pool = new_pool t ~module_name f in
  Hashtbl.replace t.pools f.Func.name pool;
  set_pending t pool;
  t.func_order_rev <- f.Func.name :: t.func_order_rev;
  m.funcs_rev <- f.Func.name :: m.funcs_rev;
  m.expanded_count <- m.expanded_count + 1;
  sync_idle t m;
  Memstats.charge t.mem Memstats.Ir_expanded pool.expanded_bytes;
  evict t

(* Discharge a pool and drop it from the table; the name lists are
   filtered by the caller. *)
let discard_pool t pool =
  let m = find_module t pool.pool_module in
  clear_pending t pool;
  (match pool.state with
  | Expanded _ ->
    drop_retained t pool;
    Memstats.release t.mem Memstats.Ir_expanded pool.expanded_bytes;
    m.expanded_count <- m.expanded_count - 1;
    sync_idle t m
  | Compacted _ ->
    Memstats.release t.mem Memstats.Ir_compacted pool.compacted_bytes
  | Offloaded _ -> ());
  Hashtbl.remove t.pools pool.fname;
  m

let remove_funcs t fnames =
  let pools =
    List.map
      (fun fname ->
        let pool = find_pool t fname in
        if pool.pins > 0 then
          invalid_arg (Printf.sprintf "Loader.remove_func: %s is pinned" fname);
        pool)
      fnames
  in
  let modules = Hashtbl.create 8 in
  List.iter
    (fun pool ->
      let m = discard_pool t pool in
      Hashtbl.replace modules m.mname m)
    pools;
  (* One pass over each name list: a name is gone iff its pool is. *)
  let live n = Hashtbl.mem t.pools n in
  Hashtbl.iter (fun _ m -> m.funcs_rev <- List.filter live m.funcs_rev) modules;
  if fnames <> [] then t.func_order_rev <- List.filter live t.func_order_rev

let remove_func t fname = remove_funcs t [ fname ]

let with_func t fname f =
  let func = acquire t fname in
  Fun.protect ~finally:(fun () -> release t fname) (fun () -> f func)

let func_names t = List.rev t.func_order_rev

let expanded_bytes t fname = (find_pool t fname).expanded_bytes

let arity_of t fname =
  Option.map (fun p -> p.arity) (Hashtbl.find_opt t.pools fname)

let global_size_of t gname =
  Hashtbl.fold
    (fun _ m acc ->
      match acc with
      | Some _ -> acc
      | None ->
        List.find_map
          (fun (g : Ilmod.global) ->
            if g.Ilmod.gname = gname then Some g.Ilmod.size else None)
          m.globals)
    t.modules None

let module_names t = List.rev t.module_order_rev

let funcs_of_module t mname = List.rev (find_module t mname).funcs_rev

let module_of_func t fname = (find_pool t fname).pool_module

let all_globals t =
  List.concat_map (fun mname -> (find_module t mname).globals) (module_names t)

let extract_modules t =
  List.map
    (fun mname ->
      let m = find_module t mname in
      let il = Ilmod.create mname in
      il.Ilmod.globals <- m.globals;
      il.Ilmod.funcs <-
        List.map
          (fun fname ->
            let f = acquire t fname in
            release t fname;
            f)
          (List.rev m.funcs_rev);
      il)
    (module_names t)

let unload_all t =
  let lvl = level t in
  if lvl <> Off then begin
    Hashtbl.iter
      (fun _ pool ->
        if pool.pins = 0 then begin
          match lvl with
          | Off -> ()
          | Ir_compaction | St_compaction -> compact_pool t pool
          | Offloading -> offload_pool t pool
        end)
      t.pools;
    match lvl with
    | St_compaction | Offloading -> compact_idle_symtabs t
    | Off | Ir_compaction -> ()
  end

let stats t =
  {
    acquires = t.s_acquires;
    cache_hits = t.s_cache_hits;
    uncompactions = t.s_uncompactions;
    repo_loads = t.s_repo_loads;
    compactions = t.s_compactions;
    offloads = t.s_offloads;
    symtab_compactions = t.s_symtab_compactions;
  }

let close t = if t.owns_repo then Repository.close t.repo

(* The scans the indexes replace, kept as the reference they must
   agree with. *)
let check_index t =
  let fail fmt = Printf.ksprintf failwith ("Loader.check_index: " ^^ fmt) in
  let total, count, victim =
    Hashtbl.fold
      (fun _ p ((total, count, best) as acc) ->
        if not p.pending then acc
        else
          ( total + p.expanded_bytes,
            count + 1,
            match best with
            | Some b when b.last_touch <= p.last_touch -> best
            | _ -> Some p ))
      t.pools (0, 0, None)
  in
  if total <> t.pending_total then
    fail "pending total %d, scan finds %d" t.pending_total total;
  if count <> Lru.cardinal t.lru then
    fail "%d pools indexed, scan finds %d pending" (Lru.cardinal t.lru) count;
  Lru.iter
    (fun key p ->
      let registered =
        match Hashtbl.find_opt t.pools p.fname with Some q -> q == p | None -> false
      in
      let expanded = match p.state with Expanded _ -> true | _ -> false in
      if key <> p.last_touch || not p.pending || not registered then
        fail "stale index entry for %s" p.fname;
      if p.pins <> 0 || not expanded then
        fail "pending pool %s is pinned or not expanded" p.fname)
    t.lru;
  (match (victim, Lru.min_binding_opt t.lru) with
  | None, None -> ()
  | Some v, Some (_, p) when v == p -> ()
  | _ -> fail "LRU victim differs from the scan's");
  Hashtbl.iter
    (fun name m ->
      let idle = m.expanded_count = 0 && not m.symtab_compacted in
      if idle <> Hashtbl.mem t.idle name then
        fail "module %s idle=%b but indexed=%b" name idle (Hashtbl.mem t.idle name))
    t.modules;
  Hashtbl.iter
    (fun name _ ->
      if not (Hashtbl.mem t.modules name) then fail "unknown idle module %s" name)
    t.idle;
  let held =
    Hashtbl.fold
      (fun _ p acc ->
        match (p.state, p.retained) with
        | Expanded f, retained -> (
          let expanded, compacted = Size.func_charges f in
          if expanded <> p.expanded_bytes || compacted <> p.compacted_bytes then
            fail "%s was modified without Loader.update (charges %d/%d, measured %d/%d)"
              p.fname p.expanded_bytes p.compacted_bytes expanded compacted;
          match retained with
          | None -> acc
          | Some bytes ->
            let names = (find_module t p.pool_module).names in
            if Ilcodec.encode_func ~names f <> bytes then
              fail "%s was modified without Loader.update" p.fname;
            acc + String.length bytes)
        | Compacted _, None -> acc + p.compacted_bytes
        | Offloaded _, None -> acc
        | (Compacted _ | Offloaded _), Some _ ->
          fail "%s retains an encoding but is not expanded" p.fname)
      t.pools 0
  in
  let resident = Memstats.resident_of t.mem Memstats.Ir_compacted in
  if held <> resident then
    fail "Ir_compacted resident %d, pools hold %d" resident held
