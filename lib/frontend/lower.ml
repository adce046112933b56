module Instr = Cmo_il.Instr
module Func = Cmo_il.Func
module Ilmod = Cmo_il.Ilmod
module Intrinsics = Cmo_il.Intrinsics

module Strtbl = Cmo_support.Strtbl

let mangle module_name name = module_name ^ "::" ^ name

(* Locals are bound in one table, innermost binding first, as in
   [Sema]: a frame's names are removed from it when the frame
   closes. *)
type ctx = {
  func : Func.t;
  resolve : string -> string;  (* static-name mangling *)
  vars : Instr.reg Strtbl.t;
  mutable declared : string list;  (* locals of the open frames, innermost first *)
  mutable blocks : Func.block list;  (* reversed layout order *)
  mutable cur : Func.block option;
  mutable cur_instrs : Instr.instr list;  (* reversed *)
  mutable loops : (Instr.label * Instr.label) list;
      (* innermost first: (continue target, break target) *)
  mutable regs : Instr.operand array;  (* [Reg r] by [r], or [unset] *)
  addrs : Instr.addr Strtbl.t;  (* scalar global -> its address *)
}

(* Operands and addresses are immutable, so the lowering shares them:
   one [Reg r] per register of a routine, one [Imm] per small
   constant, one address per scalar global of a unit.  The IL is the
   same, in fewer words. *)
let unset = Instr.Reg (-1)

let reg ctx r =
  if r >= Array.length ctx.regs then begin
    let regs = Array.make (2 * (r + 1)) unset in
    Array.blit ctx.regs 0 regs 0 (Array.length ctx.regs);
    ctx.regs <- regs
  end;
  let o = ctx.regs.(r) in
  if o != unset then o
  else begin
    let o = Instr.Reg r in
    ctx.regs.(r) <- o;
    o
  end

let small_imms = Array.init 256 (fun k -> Instr.Imm (Int64.of_int k))

let imm v = if v >= 0L && v < 256L then small_imms.(Int64.to_int v) else Instr.Imm v

(* A new block at the end of the layout; its terminator is patched
   when the block is finished.  The routine gets the list at the
   end. *)
let fresh_block ctx =
  let block =
    { Func.label = Func.new_label ctx.func; instrs = []; term = Instr.Ret None; freq = 0.0 }
  in
  ctx.blocks <- block :: ctx.blocks;
  block

let start ctx block =
  ctx.cur <- Some block;
  ctx.cur_instrs <- []

let emit ctx instr = ctx.cur_instrs <- instr :: ctx.cur_instrs

let finish ctx term =
  match ctx.cur with
  | None -> ()  (* unreachable code after a return: drop it *)
  | Some b ->
    b.Func.instrs <- List.rev ctx.cur_instrs;
    b.Func.term <- term;
    ctx.cur <- None;
    ctx.cur_instrs <- []

let in_block ctx = match ctx.cur with Some _ -> true | None -> false

let lookup_var ctx name = Strtbl.find_opt ctx.vars name

let bind ctx name r =
  Strtbl.add ctx.vars name r;
  ctx.declared <- name :: ctx.declared

let define_var ctx name =
  let r = Func.new_reg ctx.func in
  bind ctx name r;
  r

(* Run [f] in a new innermost frame. *)
let in_frame ctx f =
  let outer = ctx.declared in
  f ();
  let rec close names =
    if names != outer then
      match names with
      | name :: rest ->
        Strtbl.remove ctx.vars name;
        close rest
      | [] -> ()
  in
  close ctx.declared;
  ctx.declared <- outer

let scalar_addr ctx name =
  match Strtbl.find_opt ctx.addrs name with
  | Some addr -> addr
  | None ->
    let addr = { Instr.base = ctx.resolve name; index = Instr.Imm 0L } in
    Strtbl.replace ctx.addrs name addr;
    addr

let il_binop : Ast.binop -> Instr.binop = function
  | Ast.Add -> Instr.Add | Ast.Sub -> Instr.Sub | Ast.Mul -> Instr.Mul
  | Ast.Div -> Instr.Div | Ast.Rem -> Instr.Rem
  | Ast.And -> Instr.And | Ast.Or -> Instr.Or | Ast.Xor -> Instr.Xor
  | Ast.Shl -> Instr.Shl | Ast.Shr -> Instr.Shr
  | Ast.Eq -> Instr.Eq | Ast.Ne -> Instr.Ne | Ast.Lt -> Instr.Lt
  | Ast.Le -> Instr.Le | Ast.Gt -> Instr.Gt | Ast.Ge -> Instr.Ge
  | Ast.Land | Ast.Lor -> assert false  (* handled by control flow *)

let rec lower_expr ctx (e : Ast.expr) : Instr.operand =
  match e.Ast.desc with
  | Ast.Int v -> imm v
  | Ast.Var name -> (
    match lookup_var ctx name with
    | Some r -> reg ctx r
    | None ->
      (* Sema guarantees this cannot happen. *)
      invalid_arg (Printf.sprintf "Lower: unresolved variable %s" name))
  | Ast.Global name ->
    let d = Func.new_reg ctx.func in
    emit ctx (Instr.Load (d, scalar_addr ctx name));
    reg ctx d
  | Ast.Index (base, idx) ->
    let index = lower_expr ctx idx in
    let d = Func.new_reg ctx.func in
    emit ctx (Instr.Load (d, { Instr.base = ctx.resolve base; index }));
    reg ctx d
  | Ast.Unary (op, a) ->
    let a = lower_expr ctx a in
    let d = Func.new_reg ctx.func in
    let il_op = match op with Ast.Neg -> Instr.Neg | Ast.Not -> Instr.Not in
    emit ctx (Instr.Unop (il_op, d, a));
    reg ctx d
  | Ast.Binary (Ast.Land, a, b) -> lower_short_circuit ctx ~is_and:true a b
  | Ast.Binary (Ast.Lor, a, b) -> lower_short_circuit ctx ~is_and:false a b
  | Ast.Binary (op, a, b) ->
    let a = lower_expr ctx a in
    let b = lower_expr ctx b in
    let d = Func.new_reg ctx.func in
    emit ctx (Instr.Binop (il_binop op, d, a, b));
    reg ctx d
  | Ast.Call (callee, args) -> reg ctx (lower_call ctx ~want_result:true callee args)

and lower_call ctx ~want_result callee args =
  let argv = List.map (lower_expr ctx) args in
  let resolved =
    if Intrinsics.is_intrinsic callee then callee else ctx.resolve callee
  in
  let dst = if want_result then Some (Func.new_reg ctx.func) else None in
  let site = Func.new_site ctx.func in
  emit ctx
    (Instr.Call { Instr.dst; callee = resolved; args = argv; site; call_count = 0.0 });
  match dst with Some d -> d | None -> 0

and lower_short_circuit ctx ~is_and a b =
  (* r = a && b  ==>
       r = 0 (resp. 1); if a (resp. !a) then r = (b != 0) *)
  let result = Func.new_reg ctx.func in
  let a_val = lower_expr ctx a in
  emit ctx (Instr.Move (result, Instr.Imm (if is_and then 0L else 1L)));
  let b_block = fresh_block ctx in
  let join = fresh_block ctx in
  let ifso, ifnot =
    if is_and then (b_block.Func.label, join.Func.label)
    else (join.Func.label, b_block.Func.label)
  in
  finish ctx (Instr.Br { cond = a_val; ifso; ifnot });
  start ctx b_block;
  let b_val = lower_expr ctx b in
  emit ctx (Instr.Binop (Instr.Ne, result, b_val, Instr.Imm 0L));
  finish ctx (Instr.Jmp join.Func.label);
  start ctx join;
  reg ctx result

let rec lower_stmt ctx (s : Ast.stmt) =
  if in_block ctx then
    match s.Ast.sdesc with
    | Ast.Decl (name, e) ->
      let v = lower_expr ctx e in
      let r = define_var ctx name in
      emit ctx (Instr.Move (r, v))
    | Ast.Assign (name, e) -> (
      let v = lower_expr ctx e in
      match lookup_var ctx name with
      | Some r -> emit ctx (Instr.Move (r, v))
      | None -> emit ctx (Instr.Store (scalar_addr ctx name, v)))
    | Ast.Store (base, idx, e) ->
      let index = lower_expr ctx idx in
      let v = lower_expr ctx e in
      emit ctx (Instr.Store ({ Instr.base = ctx.resolve base; index }, v))
    | Ast.If (cond, then_body, else_body) -> (
      let c = lower_expr ctx cond in
      let then_block = fresh_block ctx in
      match else_body with
      | [] ->
        let join = fresh_block ctx in
        finish ctx
          (Instr.Br
             { cond = c; ifso = then_block.Func.label; ifnot = join.Func.label });
        start ctx then_block;
        lower_body ctx then_body;
        finish ctx (Instr.Jmp join.Func.label);
        start ctx join
      | _ :: _ ->
        let else_block = fresh_block ctx in
        let join = fresh_block ctx in
        finish ctx
          (Instr.Br
             {
               cond = c;
               ifso = then_block.Func.label;
               ifnot = else_block.Func.label;
             });
        start ctx then_block;
        lower_body ctx then_body;
        finish ctx (Instr.Jmp join.Func.label);
        start ctx else_block;
        lower_body ctx else_body;
        finish ctx (Instr.Jmp join.Func.label);
        start ctx join)
    | Ast.While (cond, body) ->
      let header = fresh_block ctx in
      let body_block = fresh_block ctx in
      let exit_block = fresh_block ctx in
      finish ctx (Instr.Jmp header.Func.label);
      start ctx header;
      let c = lower_expr ctx cond in
      finish ctx
        (Instr.Br
           {
             cond = c;
             ifso = body_block.Func.label;
             ifnot = exit_block.Func.label;
           });
      start ctx body_block;
      ctx.loops <- (header.Func.label, exit_block.Func.label) :: ctx.loops;
      lower_body ctx body;
      ctx.loops <- List.tl ctx.loops;
      finish ctx (Instr.Jmp header.Func.label);
      start ctx exit_block
    | Ast.For (init, cond, step, body) ->
      (* continue jumps to the step block, then back to the header. *)
      in_frame ctx @@ fun () ->
      Option.iter (lower_stmt ctx) init;
      let header = fresh_block ctx in
      let body_block = fresh_block ctx in
      let step_block = fresh_block ctx in
      let exit_block = fresh_block ctx in
      finish ctx (Instr.Jmp header.Func.label);
      start ctx header;
      (match cond with
      | Some cond ->
        let c = lower_expr ctx cond in
        finish ctx
          (Instr.Br
             {
               cond = c;
               ifso = body_block.Func.label;
               ifnot = exit_block.Func.label;
             })
      | None -> finish ctx (Instr.Jmp body_block.Func.label));
      start ctx body_block;
      ctx.loops <- (step_block.Func.label, exit_block.Func.label) :: ctx.loops;
      lower_body ctx body;
      ctx.loops <- List.tl ctx.loops;
      finish ctx (Instr.Jmp step_block.Func.label);
      start ctx step_block;
      Option.iter (lower_stmt ctx) step;
      finish ctx (Instr.Jmp header.Func.label);
      start ctx exit_block
    | Ast.Break -> (
      match ctx.loops with
      | (_, break_target) :: _ -> finish ctx (Instr.Jmp break_target)
      | [] -> invalid_arg "Lower: break outside a loop")
    | Ast.Continue -> (
      match ctx.loops with
      | (continue_target, _) :: _ -> finish ctx (Instr.Jmp continue_target)
      | [] -> invalid_arg "Lower: continue outside a loop")
    | Ast.Return None -> finish ctx (Instr.Ret (Some (Instr.Imm 0L)))
    | Ast.Return (Some e) ->
      let v = lower_expr ctx e in
      finish ctx (Instr.Ret (Some v))
    | Ast.Expr ({ Ast.desc = Ast.Call (callee, args); _ }) ->
      ignore (lower_call ctx ~want_result:false callee args)
    | Ast.Expr e -> ignore (lower_expr ctx e)

and lower_body ctx body = in_frame ctx (fun () -> List.iter (lower_stmt ctx) body)

let lower_func ~module_name ~resolve ~addrs (f : Ast.decl) =
  match f with
  | Ast.Global_decl _ -> assert false
  | Ast.Func_decl { name; params; body; static; pos; end_line } ->
    let linkage = if static then Func.Local else Func.Exported in
    let fname = if static then mangle module_name name else name in
    let func = Func.create ~name:fname ~arity:(List.length params) ~linkage in
    func.Func.src_lines <- max 1 (end_line - pos.Ast.line + 1);
    let ctx =
      {
        func;
        resolve;
        vars = Strtbl.create 16;
        declared = [];
        blocks = [];
        cur = None;
        cur_instrs = [];
        loops = [];
        regs = Array.make 16 unset;
        addrs;
      }
    in
    List.iteri (fun i p -> bind ctx p i) params;
    let entry = fresh_block ctx in
    func.Func.entry <- entry.Func.label;
    start ctx entry;
    List.iter (lower_stmt ctx) body;
    (* Implicit return 0 when control falls off the end. *)
    finish ctx (Instr.Ret (Some (Instr.Imm 0L)));
    func.Func.blocks <- List.rev ctx.blocks;
    func

let lower_unit (unit_ : Ast.unit_) =
  let module_name = unit_.Ast.module_name in
  (* Each static name is mangled once. *)
  let statics = Strtbl.create 16 in
  List.iter
    (fun decl ->
      match decl with
      | Ast.Global_decl { name; static = true; _ }
      | Ast.Func_decl { name; static = true; _ } ->
        Strtbl.replace statics name (mangle module_name name)
      | Ast.Global_decl _ | Ast.Func_decl _ -> ())
    unit_.Ast.decls;
  let resolve name =
    match Strtbl.find_opt statics name with Some mangled -> mangled | None -> name
  in
  let m = Ilmod.create module_name in
  let addrs = Strtbl.create 16 in
  let globals, funcs =
    List.fold_left
      (fun (globals, funcs) decl ->
        match decl with
        | Ast.Global_decl { extern_ = true; _ } ->
          (* Declaration only; storage lives in the defining module. *)
          (globals, funcs)
        | Ast.Global_decl { name; size; init; static; _ } ->
          assert (size >= 1 && Array.length init <= size);
          ({ Ilmod.gname = resolve name; size; init; exported = not static } :: globals, funcs)
        | Ast.Func_decl _ -> (globals, lower_func ~module_name ~resolve ~addrs decl :: funcs))
      ([], []) unit_.Ast.decls
  in
  m.Ilmod.globals <- List.rev globals;
  m.Ilmod.funcs <- List.rev funcs;
  m
