module Instr = Cmo_il.Instr
module Func = Cmo_il.Func
module Callgraph = Cmo_il.Callgraph
module Loader = Cmo_naim.Loader

type config = {
  always_threshold : int;
  hot_count_threshold : float;
  hot_density_ratio : float;
  hot_size_limit : int;
  cold_size_limit : int;
  caller_size_limit : int;
  program_growth : float;
  use_profile : bool;
  operation_limit : int option;
}

let default_config =
  {
    always_threshold = 12;
    hot_count_threshold = 8.0;
    hot_density_ratio = 1.5;
    hot_size_limit = 600;
    cold_size_limit = 0;
    caller_size_limit = 2400;
    program_growth = 1.8;
    use_profile = true;
    operation_limit = None;
  }

let aggressive_no_profile =
  {
    default_config with
    use_profile = false;
    cold_size_limit = 60;
    program_growth = 2.5;
  }

type stats = {
  operations : int;
  cross_module : int;
  bytes_grown : int;
  rejected_too_big : int;
  rejected_cold : int;
  rejected_recursive : int;
  rejected_caller_full : int;
}

(* ---------- mechanics ---------- *)

let find_site (caller : Func.t) site =
  List.find_map
    (fun (b : Func.block) ->
      let rec go idx = function
        | [] -> None
        | Instr.Call c :: _ when c.Instr.site = site -> Some (b, idx, c)
        | _ :: rest -> go (idx + 1) rest
      in
      go 0 b.Func.instrs)
    caller.Func.blocks

let split_at n xs =
  let rec go n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (n - 1) (x :: acc) rest
  in
  go n [] xs

let inline_call_at ~(caller : Func.t) ~site ~(callee : Func.t) =
  match find_site caller site with
  | None -> false
  | Some (_, _, c) when c.Instr.callee <> callee.Func.name -> false
  | Some (call_block, idx, c) ->
    let reg_off = caller.Func.next_reg in
    caller.Func.next_reg <- caller.Func.next_reg + callee.Func.next_reg;
    let map_reg r = reg_off + r in
    let map_operand = function
      | Instr.Reg r -> Instr.Reg (map_reg r)
      | Instr.Imm _ as op -> op
    in
    let label_map = Hashtbl.create 8 in
    List.iter
      (fun (b : Func.block) ->
        Hashtbl.replace label_map b.Func.label (Func.new_label caller))
      callee.Func.blocks;
    let map_label l = Hashtbl.find label_map l in
    let post_label = Func.new_label caller in
    (* Profile scaling: the inlined body runs [site count] times; the
       callee's annotations were measured over [entry count] calls. *)
    let entry_freq =
      match Func.find_block_opt callee callee.Func.entry with
      | Some b -> b.Func.freq
      | None -> 0.0
    in
    let scale =
      if c.Instr.call_count > 0.0 && entry_freq > 0.0 then
        c.Instr.call_count /. entry_freq
      else 0.0
    in
    let map_instr i =
      match i with
      | Instr.Move (d, a) -> Instr.Move (map_reg d, map_operand a)
      | Instr.Unop (op, d, a) -> Instr.Unop (op, map_reg d, map_operand a)
      | Instr.Binop (op, d, a, b) ->
        Instr.Binop (op, map_reg d, map_operand a, map_operand b)
      | Instr.Load (d, { Instr.base; index }) ->
        Instr.Load (map_reg d, { Instr.base; index = map_operand index })
      | Instr.Store ({ Instr.base; index }, v) ->
        Instr.Store ({ Instr.base; index = map_operand index }, map_operand v)
      | Instr.Call cc ->
        Instr.Call
          {
            Instr.dst = Option.map map_reg cc.Instr.dst;
            callee = cc.Instr.callee;
            args = List.map map_operand cc.Instr.args;
            site = Func.new_site caller;
            call_count = cc.Instr.call_count *. scale;
          }
      | Instr.Probe _ as p -> p
    in
    let inlined_blocks =
      List.map
        (fun (b : Func.block) ->
          let instrs = List.map map_instr b.Func.instrs in
          let instrs, term =
            match b.Func.term with
            | Instr.Ret v ->
              let ret_moves =
                match (c.Instr.dst, v) with
                | Some d, Some a -> [ Instr.Move (d, map_operand a) ]
                | Some d, None -> [ Instr.Move (d, Instr.Imm 0L) ]
                | None, _ -> []
              in
              (instrs @ ret_moves, Instr.Jmp post_label)
            | Instr.Jmp l -> (instrs, Instr.Jmp (map_label l))
            | Instr.Br { cond; ifso; ifnot } ->
              ( instrs,
                Instr.Br
                  {
                    cond = map_operand cond;
                    ifso = map_label ifso;
                    ifnot = map_label ifnot;
                  } )
          in
          {
            Func.label = map_label b.Func.label;
            instrs;
            term;
            freq = b.Func.freq *. scale;
          })
        callee.Func.blocks
    in
    (* Split the call block: prefix + argument binding, then the
       callee body, then the continuation with the original suffix. *)
    let before, rest = split_at idx call_block.Func.instrs in
    let after =
      match rest with
      | Instr.Call _ :: tail -> tail
      | _ -> assert false
    in
    let arg_moves = List.mapi (fun i a -> Instr.Move (map_reg i, a)) c.Instr.args in
    let post_block =
      {
        Func.label = post_label;
        instrs = after;
        term = call_block.Func.term;
        freq = call_block.Func.freq;
      }
    in
    call_block.Func.instrs <- before @ arg_moves;
    call_block.Func.term <- Instr.Jmp (map_label callee.Func.entry);
    (* Splice in layout order right after the call block. *)
    let rec splice = function
      | [] -> []
      | (b : Func.block) :: rest when b.Func.label = call_block.Func.label ->
        (b :: inlined_blocks) @ (post_block :: rest)
      | b :: rest -> b :: splice rest
    in
    caller.Func.blocks <- splice caller.Func.blocks;
    true

(* ---------- heuristics ---------- *)

type decision = Inline | Too_big | Cold | Recursive | Self | Caller_full

let decide config cg ~avg_density ~caller_name ~caller_size (c : Instr.call) =
  match Callgraph.node cg c.Instr.callee with
  | None -> Recursive  (* intrinsic or unknown: never inline *)
  | Some callee_node ->
    if c.Instr.callee = caller_name then Self
    else if Callgraph.in_cycle cg c.Instr.callee then Recursive
    else begin
      let callee_size = callee_node.Callgraph.instr_count in
      if caller_size + callee_size > config.caller_size_limit then Caller_full
      else if callee_size <= config.always_threshold then Inline
      else if config.use_profile then
        if
          c.Instr.call_count >= config.hot_count_threshold
          && callee_size <= config.hot_size_limit
          && c.Instr.call_count
             >= config.hot_density_ratio *. avg_density *. float_of_int callee_size
        then Inline
        else if c.Instr.call_count > 0.0 then Too_big
        else Cold
      else if callee_size <= config.cold_size_limit then Inline
      else Too_big
    end

(* Weakly-connected call-graph components, by union-find.  Growth is
   budgeted per component rather than program-wide so that inlining a
   component in isolation makes exactly the decisions a full-program
   run makes for it — the independence the incremental artifact cache
   relies on.  (Inlining never crosses a component boundary: an edge
   implies membership in the same weak component.) *)
let weak_components cg =
  let parent = Hashtbl.create 64 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | Some p when not (String.equal p x) ->
      let r = find p in
      Hashtbl.replace parent x r;
      r
    | Some _ -> x
    | None ->
      Hashtbl.replace parent x x;
      x
  in
  let union a b =
    let ra = find a and rb = find b in
    if not (String.equal ra rb) then Hashtbl.replace parent ra rb
  in
  List.iter (fun n -> ignore (find n.Callgraph.fname)) (Callgraph.nodes cg);
  List.iter
    (fun (e : Callgraph.edge) -> union e.Callgraph.caller e.Callgraph.callee)
    (Callgraph.edges cg);
  find

let run ?on_final loader cg config =
  let initial_total =
    List.fold_left
      (fun acc n -> acc + n.Callgraph.instr_count)
      0 (Callgraph.nodes cg)
  in
  let component_of = weak_components cg in
  (* Per-component growth budget: initial size and running total. *)
  let budgets = Hashtbl.create 16 in
  List.iter
    (fun n ->
      let root = component_of n.Callgraph.fname in
      let initial, total =
        match Hashtbl.find_opt budgets root with
        | Some b -> b
        | None ->
          let b = (ref 0, ref 0) in
          Hashtbl.replace budgets root b;
          b
      in
      initial := !initial + n.Callgraph.instr_count;
      total := !total + n.Callgraph.instr_count)
    (Callgraph.nodes cg);
  let budget_of fname =
    let initial, total = Hashtbl.find budgets (component_of fname) in
    let max_total =
      int_of_float (config.program_growth *. float_of_int !initial)
    in
    (total, max_total)
  in
  let operations = ref 0 in
  let cross_module = ref 0 in
  let bytes_grown = ref 0 in
  let too_big = ref 0 in
  let cold = ref 0 in
  let recursive = ref 0 in
  let caller_full = ref 0 in
  let limit_reached () =
    match config.operation_limit with
    | Some l -> !operations >= l
    | None -> false
  in
  (* The program-average call density (dynamic calls per IL
     instruction) normalizes the benefit test: a site must be several
     times denser than average to justify duplicating its callee.
     Being a ratio, it is independent of training-run length. *)
  let avg_density =
    Callgraph.total_edge_count cg /. float_of_int (max 1 initial_total)
  in
  let order = Callgraph.bottom_up cg in
  List.iter
    (fun caller_name ->
      if not (limit_reached ()) then begin
        let total, max_total = budget_of caller_name in
        let caller = Loader.acquire loader caller_name in
        let caller_module = Loader.module_of_func loader caller_name in
        let bytes_before = Loader.expanded_bytes loader caller_name in
        let caller_size = ref (Func.instr_count caller) in
        let inlined = ref false in
        let progress = ref true in
        while !progress && not (limit_reached ()) do
          progress := false;
          (* Candidate sites this round, grouped by callee module so
             that inlines from the same module pair happen
             back-to-back (cache-aware scheduling). *)
          let candidates =
            Func.site_calls caller
            |> List.filter_map (fun (site, c) ->
                   match
                     decide config cg ~avg_density ~caller_name
                       ~caller_size:!caller_size c
                   with
                   | Inline ->
                     let callee_module =
                       match Callgraph.node cg c.Instr.callee with
                       | Some n -> n.Callgraph.module_name
                       | None -> ""
                     in
                     Some (callee_module, site, c.Instr.callee)
                   | Too_big ->
                     incr too_big;
                     None
                   | Cold ->
                     incr cold;
                     None
                   | Recursive | Self ->
                     incr recursive;
                     None
                   | Caller_full ->
                     incr caller_full;
                     None)
            |> List.stable_sort (fun (m1, _, _) (m2, _, _) -> compare m1 m2)
          in
          List.iter
            (fun (callee_module, site, callee_name) ->
              if (not (limit_reached ())) && !total < max_total
                 && !caller_size < config.caller_size_limit
              then begin
                let callee = Loader.acquire loader callee_name in
                let callee_size = Func.instr_count callee in
                let ok = inline_call_at ~caller ~site ~callee in
                Loader.release loader callee_name;
                if ok then begin
                  incr operations;
                  if callee_module <> caller_module then incr cross_module;
                  caller_size := !caller_size + callee_size;
                  total := !total + callee_size;
                  inlined := true;
                  progress := true
                end
              end)
            candidates
        done;
        let simplified = Cfg.simplify caller in
        caller_size := Func.instr_count caller;
        (match Callgraph.node cg caller_name with
        | Some n -> n.Callgraph.instr_count <- !caller_size
        | None -> ());
        if !inlined || simplified then Loader.update loader caller;
        bytes_grown :=
          !bytes_grown + Loader.expanded_bytes loader caller_name - bytes_before;
        Option.iter (fun k -> k caller) on_final;
        Loader.release loader caller_name
      end)
    order;
  {
    operations = !operations;
    cross_module = !cross_module;
    bytes_grown = !bytes_grown;
    rejected_too_big = !too_big;
    rejected_cold = !cold;
    rejected_recursive = !recursive;
    rejected_caller_full = !caller_full;
  }
