module Func = Cmo_il.Func
module Ilmod = Cmo_il.Ilmod
module Instr = Cmo_il.Instr

type stats = {
  functions : int;
  functions_with_profile : int;
  blocks : int;
  blocks_matched : int;
  total_count : float;
  unmatched_keys : int;
  unmatched_weight : float;
}

(* The stale-profile gap: db keys that match nothing in the current
   program used to vanish without a trace, so "the profile is 90%
   dead" looked exactly like "the profile is fresh".  Walk the db once
   against the program's structure tables and account for every key
   that found no home. *)
let unmatched db modules =
  let fnames = Hashtbl.create 64 in
  let blocks = Hashtbl.create 256 in
  List.iter
    (fun (m : Ilmod.t) ->
      List.iter
        (fun (f : Func.t) ->
          Hashtbl.replace fnames f.Func.name ();
          List.iter
            (fun (b : Func.block) ->
              Hashtbl.replace blocks (f.Func.name, b.Func.label) ())
            f.Func.blocks)
        m.Ilmod.funcs)
    modules;
  let matched = function
    | Db.Fentry f -> Hashtbl.mem fnames f
    | Db.Block (f, l) -> Hashtbl.mem blocks (f, l)
    | Db.Edge (f, a, b) -> Hashtbl.mem blocks (f, a) && Hashtbl.mem blocks (f, b)
  in
  (* Only the misses are sorted: the weight adds up in key order, the
     order of [Db.entries], so the float sum is the same to the bit. *)
  let misses =
    Db.fold (fun key count acc -> if matched key then acc else (key, count) :: acc) db []
    |> List.sort (fun (a, _) (b, _) -> Db.compare_key a b)
  in
  (List.length misses, List.fold_left (fun acc (_, count) -> acc +. count) 0.0 misses)

let annotate db modules =
  let functions = ref 0 in
  let functions_with_profile = ref 0 in
  let blocks = ref 0 in
  let blocks_matched = ref 0 in
  let total_count = ref 0.0 in
  List.iter
    (fun (m : Ilmod.t) ->
      List.iter
        (fun (f : Func.t) ->
          incr functions;
          let any = ref false in
          List.iter
            (fun (b : Func.block) ->
              incr blocks;
              let key = Db.Block (f.Func.name, b.Func.label) in
              let count = Db.get db key in
              if Db.mem db key then begin
                incr blocks_matched;
                any := true
              end;
              b.Func.freq <- count;
              total_count := !total_count +. count;
              List.iter
                (fun i ->
                  match i with
                  | Instr.Call c -> c.Instr.call_count <- count
                  | Instr.Move _ | Instr.Unop _ | Instr.Binop _ | Instr.Load _
                  | Instr.Store _ | Instr.Probe _ -> ())
                b.Func.instrs)
            f.Func.blocks;
          if !any then incr functions_with_profile)
        m.Ilmod.funcs)
    modules;
  let unmatched_keys, unmatched_weight = unmatched db modules in
  if Cmo_obs.Obs.enabled () then begin
    Cmo_obs.Obs.tick "correlate" "unmatched_keys" unmatched_keys;
    Cmo_obs.Obs.tick "correlate" "matched_blocks" !blocks_matched
  end;
  {
    functions = !functions;
    functions_with_profile = !functions_with_profile;
    blocks = !blocks;
    blocks_matched = !blocks_matched;
    total_count = !total_count;
    unmatched_keys;
    unmatched_weight;
  }

let clear modules =
  List.iter
    (fun (m : Ilmod.t) ->
      List.iter
        (fun (f : Func.t) ->
          List.iter
            (fun (b : Func.block) ->
              b.Func.freq <- 0.0;
              List.iter
                (fun i ->
                  match i with
                  | Instr.Call c -> c.Instr.call_count <- 0.0
                  | Instr.Move _ | Instr.Unop _ | Instr.Binop _ | Instr.Load _
                  | Instr.Store _ | Instr.Probe _ -> ())
                b.Func.instrs)
            f.Func.blocks)
        m.Ilmod.funcs)
    modules

let pp_stats ppf s =
  Format.fprintf ppf
    "functions %d/%d with profile, blocks %d/%d matched, total count %.0f, \
     %d unmatched keys (weight %.0f)"
    s.functions_with_profile s.functions s.blocks_matched s.blocks
    s.total_count s.unmatched_keys s.unmatched_weight
