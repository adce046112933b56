module Strtbl = Cmo_support.Strtbl

type error = { pos : Ast.pos; msg : string }

(* Locals are block-scoped with shadowing.  One table holds every
   visible local, bound to the depth of the frame that declares it;
   [Strtbl.add] shadows an outer binding and [Strtbl.remove] uncovers
   it again when the inner frame closes. *)
type scope = {
  globals : int Strtbl.t;  (* name -> size *)
  funcs : int Strtbl.t;  (* name -> arity *)
  locals : int Strtbl.t;  (* name -> depth of its innermost frame *)
  mutable depth : int;  (* of the innermost open frame *)
  mutable declared : string list;  (* locals of the open frames, innermost first *)
  mutable errors : error list;
  mutable loop_depth : int;  (* break/continue legality *)
}

let err scope pos fmt =
  Format.kasprintf (fun msg -> scope.errors <- { pos; msg } :: scope.errors) fmt

let build_scope (unit_ : Ast.unit_) =
  let scope =
    {
      globals = Strtbl.create 32;
      funcs = Strtbl.create 32;
      locals = Strtbl.create 16;
      depth = 0;
      declared = [];
      errors = [];
      loop_depth = 0;
    }
  in
  List.iter
    (fun decl ->
      match decl with
      | Ast.Global_decl { name; size; pos; _ } ->
        if Strtbl.mem scope.globals name || Strtbl.mem scope.funcs name then
          err scope pos "duplicate declaration of %s" name
        else Strtbl.replace scope.globals name size
      | Ast.Func_decl { name; params; pos; _ } ->
        if Strtbl.mem scope.globals name || Strtbl.mem scope.funcs name then
          err scope pos "duplicate declaration of %s" name
        else if Cmo_il.Intrinsics.is_intrinsic name then
          err scope pos "function %s shadows an intrinsic" name
        else Strtbl.replace scope.funcs name (List.length params))
    unit_.Ast.decls;
  scope

(* Run [f] in a new innermost frame. *)
let in_frame scope f =
  let outer = scope.declared in
  scope.depth <- scope.depth + 1;
  let r = f () in
  let rec close names =
    if names != outer then
      match names with
      | name :: rest ->
        Strtbl.remove scope.locals name;
        close rest
      | [] -> ()
  in
  close scope.declared;
  scope.declared <- outer;
  scope.depth <- scope.depth - 1;
  r

let declared_here scope name =
  match Strtbl.find_opt scope.locals name with
  | Some depth -> depth = scope.depth
  | None -> false

let declare scope name =
  Strtbl.add scope.locals name scope.depth;
  scope.declared <- name :: scope.declared

let local_defined scope name = Strtbl.mem scope.locals name

(* [List.map], left to right, that returns the list itself when [f]
   returned every element itself: a resolved unit shares every node
   resolution did not change. *)
let rec map_shared f = function
  | [] as l -> l
  | x :: rest as l ->
    let x' = f x in
    let rest' = map_shared f rest in
    if x' == x && rest' == rest then l else x' :: rest'

let rec resolve_expr scope (e : Ast.expr) : Ast.expr =
  match e.Ast.desc with
  | Ast.Int _ | Ast.Global _ -> e
  | Ast.Var name ->
    if local_defined scope name then e
    else begin
      match Strtbl.find_opt scope.globals name with
      | Some size ->
        if size <> 1 then err scope e.Ast.pos "array global %s used as a scalar" name;
        { e with Ast.desc = Ast.Global name }
      | None ->
        err scope e.Ast.pos "undeclared variable %s" name;
        e
    end
  | Ast.Index (base, idx) ->
    if local_defined scope base then
      err scope e.Ast.pos "cannot index local variable %s" base
    else if not (Strtbl.mem scope.globals base) then
      err scope e.Ast.pos "undeclared global %s" base;
    let idx' = resolve_expr scope idx in
    if idx' == idx then e else { e with Ast.desc = Ast.Index (base, idx') }
  | Ast.Unary (op, a) ->
    let a' = resolve_expr scope a in
    if a' == a then e else { e with Ast.desc = Ast.Unary (op, a') }
  | Ast.Binary (op, a, b) ->
    (* The right operand first: errors come in the order they always
       have. *)
    let b' = resolve_expr scope b in
    let a' = resolve_expr scope a in
    if a' == a && b' == b then e else { e with Ast.desc = Ast.Binary (op, a', b') }
  | Ast.Call (callee, args) ->
    (if local_defined scope callee || Strtbl.mem scope.globals callee then
       err scope e.Ast.pos "%s is not a function" callee
     else
       match Cmo_il.Intrinsics.arity callee with
       | Some a ->
         if List.length args <> a then
           err scope e.Ast.pos "intrinsic %s expects %d argument(s), got %d" callee a
             (List.length args)
       | None -> (
         match Strtbl.find_opt scope.funcs callee with
         | Some arity ->
           if List.length args <> arity then
             err scope e.Ast.pos "%s expects %d argument(s), got %d" callee arity
               (List.length args)
         | None -> (* extern: checked at link time *) ()));
    let args' = map_shared (resolve_expr scope) args in
    if args' == args then e else { e with Ast.desc = Ast.Call (callee, args') }

let resolve_opt f = function
  | None as o -> o
  | Some x as o ->
    let x' = f x in
    if x' == x then o else Some x'

let rec resolve_stmt scope (s : Ast.stmt) : Ast.stmt =
  let with_desc sdesc = { s with Ast.sdesc } in
  match s.Ast.sdesc with
  | Ast.Decl (name, e) ->
    let e' = resolve_expr scope e in
    if declared_here scope name then
      err scope s.Ast.spos "duplicate local %s in the same block" name
    else declare scope name;
    if e' == e then s else with_desc (Ast.Decl (name, e'))
  | Ast.Assign (name, e) ->
    let e' = resolve_expr scope e in
    (if not (local_defined scope name) then
       match Strtbl.find_opt scope.globals name with
       | Some size ->
         if size <> 1 then err scope s.Ast.spos "cannot assign whole array %s" name
       | None -> err scope s.Ast.spos "assignment to undeclared variable %s" name);
    if e' == e then s else with_desc (Ast.Assign (name, e'))
  | Ast.Store (base, idx, v) ->
    if local_defined scope base then
      err scope s.Ast.spos "cannot index local variable %s" base
    else if not (Strtbl.mem scope.globals base) then
      err scope s.Ast.spos "undeclared global %s" base;
    (* The stored value first, as for [Binary]. *)
    let v' = resolve_expr scope v in
    let idx' = resolve_expr scope idx in
    if idx' == idx && v' == v then s else with_desc (Ast.Store (base, idx', v'))
  | Ast.If (cond, then_body, else_body) ->
    let cond' = resolve_expr scope cond in
    let then' = resolve_body scope then_body in
    let else' = resolve_body scope else_body in
    if cond' == cond && then' == then_body && else' == else_body then s
    else with_desc (Ast.If (cond', then', else'))
  | Ast.While (cond, body) ->
    let cond' = resolve_expr scope cond in
    scope.loop_depth <- scope.loop_depth + 1;
    let body' = resolve_body scope body in
    scope.loop_depth <- scope.loop_depth - 1;
    if cond' == cond && body' == body then s else with_desc (Ast.While (cond', body'))
  | Ast.For (init, cond, step, body) ->
    (* The init's bindings are visible to cond, step and body. *)
    in_frame scope (fun () ->
        let init' = resolve_opt (resolve_stmt scope) init in
        let cond' = resolve_opt (resolve_expr scope) cond in
        scope.loop_depth <- scope.loop_depth + 1;
        let body' = resolve_body scope body in
        let step' = resolve_opt (resolve_stmt scope) step in
        scope.loop_depth <- scope.loop_depth - 1;
        if init' == init && cond' == cond && step' == step && body' == body then s
        else with_desc (Ast.For (init', cond', step', body')))
  | Ast.Break ->
    if scope.loop_depth = 0 then err scope s.Ast.spos "break outside of a loop";
    s
  | Ast.Continue ->
    if scope.loop_depth = 0 then err scope s.Ast.spos "continue outside of a loop";
    s
  | Ast.Return None -> s
  | Ast.Return (Some e) ->
    let e' = resolve_expr scope e in
    if e' == e then s else with_desc (Ast.Return (Some e'))
  | Ast.Expr e ->
    let e' = resolve_expr scope e in
    if e' == e then s else with_desc (Ast.Expr e')

and resolve_body scope body = in_frame scope (fun () -> map_shared (resolve_stmt scope) body)

(* The parameters and the body's top-level locals share one frame. *)
let resolve_func scope name params body pos =
  in_frame scope (fun () ->
      List.iter
        (fun p ->
          if declared_here scope p then err scope pos "duplicate parameter %s in %s" p name
          else declare scope p)
        params;
      map_shared (resolve_stmt scope) body)

let analyze (unit_ : Ast.unit_) =
  let scope = build_scope unit_ in
  let decls =
    List.map
      (fun decl ->
        match decl with
        | Ast.Global_decl _ -> decl
        | Ast.Func_decl { name; params; body; static; pos; end_line } ->
          let body' = resolve_func scope name params body pos in
          if body' == body then decl
          else Ast.Func_decl { name; params; body = body'; static; pos; end_line })
      unit_.Ast.decls
  in
  match scope.errors with
  | [] -> Ok { unit_ with Ast.decls }
  | errors -> Error (List.rev errors)

let pp_error ppf { pos; msg } =
  Format.fprintf ppf "line %d, col %d: %s" pos.Ast.line pos.Ast.col msg
