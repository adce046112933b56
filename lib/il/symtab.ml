type entry =
  | Func_entry of { module_name : string; arity : int; linkage : Func.linkage }
  | Global_entry of { module_name : string; size : int; exported : bool }

type error =
  | Duplicate of string * string * string
  | Undefined of string * string

module Strtbl = Cmo_support.Strtbl

type t = {
  table : entry Strtbl.t;
  mutable order : string list;  (* reverse definition order *)
}

let entry_module = function
  | Func_entry { module_name; _ } | Global_entry { module_name; _ } ->
    module_name

let entry_exported = function
  | Func_entry { linkage = Func.Exported; _ } -> true
  | Func_entry { linkage = Func.Local; _ } -> false
  | Global_entry { exported; _ } -> exported

let add t errors name entry =
  match Strtbl.find_opt t.table name with
  | Some prev ->
    errors := Duplicate (name, entry_module prev, entry_module entry) :: !errors
  | None ->
    Strtbl.replace t.table name entry;
    t.order <- name :: t.order

let find t ~current_module:_ name = Strtbl.find_opt t.table name

let find_exported t name =
  match Strtbl.find_opt t.table name with
  | Some e when entry_exported e -> Some e
  | Some _ | None -> None

let defined_names t = List.rev t.order

(* [k name] on each name a function references (callees and global
   bases), once, in first-reference order.  [seen] maps a name to the
   last function that referenced it, [stamp] this one. *)
let iter_referenced seen stamp f k =
  let note n =
    match Strtbl.find_opt seen n with
    | Some s when s = stamp -> ()
    | Some _ | None ->
      Strtbl.replace seen n stamp;
      k n
  in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          match i with
          | Instr.Call { callee; _ } -> note callee
          | Instr.Load (_, { base; _ }) | Instr.Store ({ base; _ }, _) -> note base
          | Instr.Move _ | Instr.Unop _ | Instr.Binop _ | Instr.Probe _ -> ())
        b.Func.instrs)
    f.Func.blocks

let build modules =
  let t = { table = Strtbl.create 256; order = [] } in
  let errors = ref [] in
  List.iter
    (fun m ->
      List.iter
        (fun (g : Ilmod.global) ->
          add t errors g.Ilmod.gname
            (Global_entry
               {
                 module_name = m.Ilmod.mname;
                 size = g.Ilmod.size;
                 exported = g.Ilmod.exported;
               }))
        m.Ilmod.globals;
      List.iter
        (fun (f : Func.t) ->
          add t errors f.Func.name
            (Func_entry
               {
                 module_name = m.Ilmod.mname;
                 arity = f.Func.arity;
                 linkage = f.Func.linkage;
               }))
        m.Ilmod.funcs)
    modules;
  let seen = Strtbl.create 256 and stamp = ref 0 in
  List.iter
    (fun m ->
      List.iter
        (fun f ->
          incr stamp;
          iter_referenced seen !stamp f (fun name ->
              if not (Intrinsics.is_intrinsic name || Strtbl.mem t.table name) then
                errors := Undefined (m.Ilmod.mname, name) :: !errors))
        m.Ilmod.funcs)
    modules;
  match !errors with [] -> Ok t | errs -> Error (List.rev errs)

let pp_error ppf = function
  | Duplicate (name, m1, m2) ->
    Format.fprintf ppf "symbol %s multiply defined (in %s and %s)" name m1 m2
  | Undefined (m, name) ->
    Format.fprintf ppf "module %s references undefined symbol %s" m name
