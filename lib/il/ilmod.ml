type global = {
  gname : string;
  size : int;
  init : int64 array;
  exported : bool;
}

type t = {
  mname : string;
  mutable globals : global list;
  mutable funcs : Func.t list;
}

let create mname = { mname; globals = []; funcs = [] }

let add_global t ~name ~size ?(init = [||]) ~exported () =
  assert (size >= 1);
  assert (Array.length init <= size);
  let g = { gname = name; size; init; exported } in
  t.globals <- t.globals @ [ g ];
  g

let add_func t f = t.funcs <- t.funcs @ [ f ]

let find_func t name = List.find_opt (fun f -> f.Func.name = name) t.funcs

let src_lines t =
  List.fold_left (fun acc f -> acc + f.Func.src_lines) 0 t.funcs

let instr_count t =
  List.fold_left (fun acc f -> acc + Func.instr_count f) 0 t.funcs

let pp ppf t =
  Format.fprintf ppf "@[<v>module %s" t.mname;
  List.iter
    (fun g ->
      Format.fprintf ppf "@,global %s[%d]%s" g.gname g.size
        (if g.exported then "" else " local"))
    t.globals;
  List.iter (fun f -> Format.fprintf ppf "@,%a" Func.pp f) t.funcs;
  Format.fprintf ppf "@]"
