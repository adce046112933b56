module Instr = Cmo_il.Instr
module Func = Cmo_il.Func
module Callgraph = Cmo_il.Callgraph
module Intrinsics = Cmo_il.Intrinsics
module Loader = Cmo_naim.Loader

type config = {
  hot_count : float;
  min_callee_size : int;
  max_callee_size : int;
  max_clones : int;
}

let default_config =
  {
    hot_count = 1000.0;
    min_callee_size = 12;
    max_callee_size = 400;
    max_clones = 64;
  }

(* Constant-argument pattern of a call: (param index, value) list. *)
let const_pattern (c : Instr.call) =
  List.filteri (fun _ _ -> true) c.Instr.args
  |> List.mapi (fun i a -> (i, a))
  |> List.filter_map (fun (i, a) ->
         match a with Instr.Imm v -> Some (i, v) | Instr.Reg _ -> None)

let clone_name callee n = Printf.sprintf "%s$c%d" callee n

let make_clone (callee : Func.t) ~name pattern =
  let clone = Func.copy callee in
  let clone =
    {
      clone with
      Func.name;
      linkage = Func.Local;
    }
  in
  (* Renumber call sites: the clone's sites must be unique within the
     clone only, so the copies are fine; pin parameters at entry. *)
  let entry = Func.entry_block clone in
  let moves = List.map (fun (i, v) -> Instr.Move (i, Instr.Imm v)) pattern in
  entry.Func.instrs <- moves @ entry.Func.instrs;
  clone

(* The site test that needs no body: hot enough, not a self call, and a
   callee of clonable size outside any cycle.  The per-site check and
   the per-caller pre-check over call-graph edges share it. *)
let candidate config cg ~caller ~callee count =
  count >= config.hot_count
  && (not (Intrinsics.is_intrinsic callee))
  && callee <> caller
  &&
  match Callgraph.node cg callee with
  | Some node ->
    node.Callgraph.instr_count >= config.min_callee_size
    && node.Callgraph.instr_count <= config.max_callee_size
    && not (Callgraph.in_cycle cg callee)
  | None -> false

let run loader cg config =
  let clones_made = ref 0 in
  let next_id = ref 0 in
  (* (callee, pattern) -> clone name *)
  let cache = Hashtbl.create 16 in
  List.iter
    (fun caller_name ->
      if
        !clones_made < config.max_clones
        && List.exists
             (fun (e : Callgraph.edge) ->
               candidate config cg ~caller:caller_name ~callee:e.Callgraph.callee
                 e.Callgraph.count)
             (Callgraph.callees cg caller_name)
      then
        Loader.with_func loader caller_name (fun caller ->
            let changed = ref false in
            List.iter
              (fun (b : Func.block) ->
                b.Func.instrs <-
                  List.map
                    (fun i ->
                      match i with
                      | Instr.Call c
                        when !clones_made < config.max_clones
                             && candidate config cg ~caller:caller_name
                                  ~callee:c.Instr.callee c.Instr.call_count -> (
                        match const_pattern c with
                        | [] -> i
                        | pattern ->
                          let key = (c.Instr.callee, pattern) in
                          let name =
                            match Hashtbl.find_opt cache key with
                            | Some name -> name
                            | None ->
                              let name = clone_name c.Instr.callee !next_id in
                              incr next_id;
                              let callee = Loader.acquire loader c.Instr.callee in
                              let clone = make_clone callee ~name pattern in
                              let callee_module =
                                Loader.module_of_func loader c.Instr.callee
                              in
                              Loader.release loader c.Instr.callee;
                              Loader.add_func loader ~module_name:callee_module
                                clone;
                              Hashtbl.replace cache key name;
                              incr clones_made;
                              name
                          in
                          changed := true;
                          Instr.Call { c with Instr.callee = name })
                      | other -> other)
                    b.Func.instrs)
              caller.Func.blocks;
            if !changed then Loader.update loader caller))
    (Loader.func_names loader);
  !clones_made
