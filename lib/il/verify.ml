type issue = {
  func : string;
  message : string;
}

(* A set of labels or sites: a byte map below the routine's counter,
   which hands out every legal one, and a table for anything else.
   The map is capped, so that a corrupt counter cannot ask for a huge
   one. *)
type int_set = { dense : Bytes.t; sparse : (int, unit) Hashtbl.t }

let int_set ~counter =
  { dense = Bytes.make (max 0 (min counter 65536)) '\000'; sparse = Hashtbl.create 1 }

let set_mem s k =
  if k >= 0 && k < Bytes.length s.dense then Bytes.unsafe_get s.dense k <> '\000'
  else Hashtbl.mem s.sparse k

let set_add s k =
  if k >= 0 && k < Bytes.length s.dense then Bytes.unsafe_set s.dense k '\001'
  else Hashtbl.replace s.sparse k ()

(* The checks that need the program's symbol table: callees resolve to
   functions of the right arity, address bases to globals. *)
let check_call_target st ~module_name add callee nargs =
  match Symtab.find st ~current_module:module_name callee with
  | Some (Symtab.Func_entry { arity; _ }) ->
    if nargs <> arity then
      add (Printf.sprintf "call to %s passes %d args, expects %d" callee nargs arity)
  | Some (Symtab.Global_entry _) ->
    add (Printf.sprintf "call target %s is a global, not a function" callee)
  | None -> add (Printf.sprintf "call to undefined function %s" callee)

let check_base st ~module_name add base =
  match Symtab.find st ~current_module:module_name base with
  | Some (Symtab.Global_entry _) -> ()
  | Some (Symtab.Func_entry _) ->
    add (Printf.sprintf "address base %s is a function, not a global" base)
  | None -> add (Printf.sprintf "reference to undefined global %s" base)

let check_func ?symtab ~module_name (f : Func.t) =
  let issues = ref [] in
  let add message = issues := { func = f.Func.name; message } :: !issues in
  let report fmt = Format.kasprintf add fmt in
  match f.Func.blocks with
  | [] ->
    report "function has no blocks";
    List.rev !issues
  | blocks ->
    let labels = int_set ~counter:f.Func.next_label in
    List.iter
      (fun b ->
        if set_mem labels b.Func.label then report "duplicate block label L%d" b.Func.label
        else set_add labels b.Func.label;
        if b.Func.label >= f.Func.next_label then
          report "block label L%d exceeds label counter %d" b.Func.label f.Func.next_label)
      blocks;
    if not (set_mem labels f.Func.entry) then
      report "entry label L%d does not exist" f.Func.entry;
    let check_reg r =
      if r < 0 || r >= f.Func.next_reg then
        report "register r%d out of range (next_reg=%d)" r f.Func.next_reg
    in
    let check_operand = function Instr.Reg r -> check_reg r | Instr.Imm _ -> () in
    let check_callee callee nargs =
      match Intrinsics.arity callee with
      | Some a ->
        if nargs <> a then report "intrinsic %s called with %d args, expects %d" callee nargs a
      | None -> Option.iter (fun st -> check_call_target st ~module_name add callee nargs) symtab
    in
    let check_base base = Option.iter (fun st -> check_base st ~module_name add base) symtab
    in
    let sites = int_set ~counter:f.Func.next_site in
    (* Per instruction: its definition, its uses in operand order, then
       what the kind of instruction adds. *)
    let check_instr = function
      | Instr.Move (d, a) | Instr.Unop (_, d, a) ->
        check_reg d;
        check_operand a
      | Instr.Binop (_, d, a, b) ->
        check_reg d;
        check_operand a;
        check_operand b
      | Instr.Load (d, { base; index }) ->
        check_reg d;
        check_operand index;
        check_base base
      | Instr.Store ({ base; index }, v) ->
        check_operand index;
        check_operand v;
        check_base base
      | Instr.Call { dst; callee; args; site; _ } ->
        Option.iter check_reg dst;
        List.iter check_operand args;
        check_callee callee (List.length args);
        if site < 0 || site >= f.Func.next_site then
          report "call site s%d exceeds site counter %d" site f.Func.next_site;
        if set_mem sites site then report "duplicate call site id s%d" site
        else set_add sites site
      | Instr.Probe _ -> ()
    in
    let check_target from target =
      if not (set_mem labels target) then
        report "branch to missing label L%d from L%d" target from
    in
    List.iter
      (fun b ->
        List.iter check_instr b.Func.instrs;
        match b.Func.term with
        | Instr.Ret a -> Option.iter check_operand a
        | Instr.Jmp l -> check_target b.Func.label l
        | Instr.Br { cond; ifso; ifnot } ->
          check_operand cond;
          check_target b.Func.label ifso;
          check_target b.Func.label ifnot)
      blocks;
    List.rev !issues

let check_module ?symtab (m : Ilmod.t) =
  List.concat_map
    (fun f -> check_func ?symtab ~module_name:m.Ilmod.mname f)
    m.Ilmod.funcs

(* Only the symbol-table checks of [check_func]: on a routine whose
   local checks found nothing, they report what [check_func ~symtab]
   does, in the same order. *)
let check_links st (m : Ilmod.t) =
  let module_name = m.Ilmod.mname in
  List.concat_map
    (fun (f : Func.t) ->
      let issues = ref [] in
      let add message = issues := { func = f.Func.name; message } :: !issues in
      List.iter
        (fun b ->
          List.iter
            (function
              | Instr.Call { callee; args; _ } ->
                if not (Intrinsics.is_intrinsic callee) then
                  check_call_target st ~module_name add callee (List.length args)
              | Instr.Load (_, { base; _ }) | Instr.Store ({ base; _ }, _) ->
                check_base st ~module_name add base
              | Instr.Move _ | Instr.Unop _ | Instr.Binop _ | Instr.Probe _ -> ())
            b.Func.instrs)
        f.Func.blocks;
      List.rev !issues)
    m.Ilmod.funcs

let check_program ?(verified = fun _ -> false) modules =
  match Symtab.build modules with
  | Error errs ->
    List.map
      (fun e ->
        { func = "<symtab>"; message = Format.asprintf "%a" Symtab.pp_error e })
      errs
  | Ok symtab ->
    List.concat_map
      (fun m -> if verified m then check_links symtab m else check_module ~symtab m)
      modules

let pp_issue ppf { func; message } = Format.fprintf ppf "[%s] %s" func message
