module Instr = Cmo_il.Instr
module Func = Cmo_il.Func
module Ilmod = Cmo_il.Ilmod
module Intrinsics = Cmo_il.Intrinsics
module Loader = Cmo_naim.Loader

type context = {
  externally_called : string -> bool;
  externally_stored : string -> bool;
  entry : string option;
  keep_exported : bool;
}

let whole_program =
  {
    externally_called = (fun _ -> false);
    externally_stored = (fun _ -> false);
    entry = Some "main";
    keep_exported = true;
  }

let closed_world = { whole_program with keep_exported = false }

type stats = {
  const_params : int;
  const_global_loads : int;
  dead_functions : string list;
}

type arg_lattice = Top | Const of int64 | Varying

let meet a b =
  match (a, b) with
  | Top, x | x, Top -> x
  | Const x, Const y when Int64.equal x y -> Const x
  | _ -> Varying

(* What the plan needs to know about one routine, read from its final
   pre-IPA body.  [calls] has one entry per distinct callee: its
   argument lattice met over this routine's sites. *)
type summary = {
  calls : (string * arg_lattice array) list;
  stores : string list;  (* globals stored to *)
  imm_loads : (string * int64) list;  (* loads at immediate indices *)
  exported : bool;
}

let lattice_of = function Instr.Imm c -> Const c | Instr.Reg _ -> Varying

(* The verifier gives every site of a callee the same argument count;
   a slot missing on one side meets as [Top] all the same. *)
let meet_args a b =
  let at x i = if i < Array.length x then x.(i) else Top in
  Array.init (max (Array.length a) (Array.length b)) (fun i -> meet (at a i) (at b i))

let add_call table callee lat =
  Hashtbl.replace table callee
    (match Hashtbl.find_opt table callee with
    | Some acc -> meet_args acc lat
    | None -> lat)

let summarize (f : Func.t) =
  let calls = Hashtbl.create 8 in
  let stores = Hashtbl.create 8 in
  let imm_loads = ref [] in
  List.iter
    (fun (b : Func.block) ->
      List.iter
        (fun i ->
          match i with
          | Instr.Store ({ Instr.base; _ }, _) -> Hashtbl.replace stores base ()
          | Instr.Load (_, { Instr.base; index = Instr.Imm k }) ->
            imm_loads := (base, k) :: !imm_loads
          | Instr.Call { callee; args; _ }
            when not (Intrinsics.is_intrinsic callee) ->
            add_call calls callee (Array.of_list (List.map lattice_of args))
          | Instr.Call _ | Instr.Move _ | Instr.Unop _ | Instr.Binop _
          | Instr.Load _ | Instr.Probe _ -> ())
        b.Func.instrs)
    f.Func.blocks;
  {
    calls = Hashtbl.fold (fun c lat acc -> (c, lat) :: acc) calls [];
    stores = Hashtbl.fold (fun g () acc -> g :: acc) stores [];
    imm_loads = !imm_loads;
    exported = f.Func.linkage = Func.Exported;
  }

type plan = {
  pins : (string, (int * int64) list) Hashtbl.t;  (* routines with pins *)
  consts : (string, Ilmod.global) Hashtbl.t;  (* never-stored globals *)
  folding : (string, unit) Hashtbl.t;  (* routines with a foldable load *)
  stats : stats;
}

(* Whether outside code could call [fname] under this context. *)
let callable_from_outside ctx summary_of fname =
  ctx.externally_called fname
  || (ctx.keep_exported && (summary_of fname).exported)

let foldable consts base k =
  match Hashtbl.find_opt consts base with
  | Some g ->
    let k = Int64.to_int k in
    if k >= 0 && k < g.Ilmod.size then Some g else None
  | None -> None

let remove_dead_functions loader ctx summary_of names =
  let reachable = Hashtbl.create 256 in
  let rec visit fname =
    if not (Hashtbl.mem reachable fname) then begin
      Hashtbl.replace reachable fname ();
      match Loader.arity_of loader fname with
      | Some _ -> List.iter (fun (c, _) -> visit c) (summary_of fname).calls
      | None -> ()  (* outside the analyzed set *)
    end
  in
  (match ctx.entry with
  | Some e when List.mem e names -> visit e
  | Some _ | None -> ());
  List.iter
    (fun n -> if callable_from_outside ctx summary_of n then visit n)
    names;
  (* With no entry and nothing externally callable, removal would be
     vacuous-total; keep everything in that degenerate case. *)
  if Hashtbl.length reachable = 0 then []
  else begin
    let dead = List.filter (fun n -> not (Hashtbl.mem reachable n)) names in
    List.iter (fun n -> Loader.remove_func loader n) dead;
    dead
  end

let plan loader ctx summary_of =
  let names = Loader.func_names loader in
  (* Program-wide argument lattices and the set of stored globals. *)
  let args = Hashtbl.create 256 in
  let stored = Hashtbl.create 64 in
  List.iter
    (fun n ->
      let s = summary_of n in
      List.iter (fun (callee, lat) -> add_call args callee lat) s.calls;
      List.iter (fun g -> Hashtbl.replace stored g ()) s.stores)
    names;
  let pins = Hashtbl.create 16 in
  let const_params = ref 0 in
  List.iter
    (fun fname ->
      let is_entry = ctx.entry = Some fname in
      if (not is_entry) && not (callable_from_outside ctx summary_of fname) then
        match Hashtbl.find_opt args fname with
        | None -> ()  (* no callers at all: dead, handled below *)
        | Some lat ->
          let ps =
            Array.to_list lat
            |> List.mapi (fun i v -> (i, v))
            |> List.filter_map (fun (i, v) ->
                   match v with Const c -> Some (i, c) | Top | Varying -> None)
          in
          let arity = Option.value ~default:0 (Loader.arity_of loader fname) in
          if ps <> [] && List.for_all (fun (i, _) -> i < arity) ps then begin
            Hashtbl.replace pins fname ps;
            const_params := !const_params + List.length ps
          end)
    names;
  let consts = Hashtbl.create 64 in
  List.iter
    (fun (g : Ilmod.global) ->
      if
        (not (Hashtbl.mem stored g.Ilmod.gname))
        && not (ctx.externally_stored g.Ilmod.gname)
      then Hashtbl.replace consts g.Ilmod.gname g)
    (Loader.all_globals loader);
  let folding = Hashtbl.create 64 in
  let const_global_loads = ref 0 in
  List.iter
    (fun fname ->
      let n =
        List.fold_left
          (fun acc (base, k) ->
            if foldable consts base k <> None then acc + 1 else acc)
          0 (summary_of fname).imm_loads
      in
      if n > 0 then begin
        Hashtbl.replace folding fname ();
        const_global_loads := !const_global_loads + n
      end)
    names;
  let dead_functions = remove_dead_functions loader ctx summary_of names in
  {
    pins;
    consts;
    folding;
    stats =
      {
        const_params = !const_params;
        const_global_loads = !const_global_loads;
        dead_functions;
      };
  }

let plan_stats p = p.stats

let has_transform p fname =
  Hashtbl.mem p.pins fname || Hashtbl.mem p.folding fname

let transform p (f : Func.t) =
  (match Hashtbl.find_opt p.pins f.Func.name with
  | Some ps ->
    let entry = Func.entry_block f in
    entry.Func.instrs <-
      List.map (fun (i, c) -> Instr.Move (i, Instr.Imm c)) ps @ entry.Func.instrs
  | None -> ());
  if Hashtbl.mem p.folding f.Func.name then
    List.iter
      (fun (b : Func.block) ->
        b.Func.instrs <-
          List.map
            (fun i ->
              match i with
              | Instr.Load (d, { Instr.base; index = Instr.Imm k }) -> (
                match foldable p.consts base k with
                | Some g ->
                  let k = Int64.to_int k in
                  let v =
                    if k < Array.length g.Ilmod.init then g.Ilmod.init.(k) else 0L
                  in
                  Instr.Move (d, Instr.Imm v)
                | None -> i)
              | other -> other)
            b.Func.instrs)
      f.Func.blocks

let run loader ctx =
  let summaries = Hashtbl.create 256 in
  List.iter
    (fun fname ->
      Loader.with_func loader fname (fun f ->
          Hashtbl.replace summaries fname (summarize f)))
    (Loader.func_names loader);
  let p = plan loader ctx (Hashtbl.find summaries) in
  List.iter
    (fun fname ->
      if has_transform p fname then
        Loader.with_func loader fname (fun f ->
            transform p f;
            Loader.update loader f))
    (Loader.func_names loader);
  p.stats
