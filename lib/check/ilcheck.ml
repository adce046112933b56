module Instr = Cmo_il.Instr
module Func = Cmo_il.Func
module Ilmod = Cmo_il.Ilmod
module Intrinsics = Cmo_il.Intrinsics

type binding =
  | Func_binding of { arity : int }
  | Global_binding of { size : int }

type env = { resolve : string -> binding option }

let env_of_modules modules =
  let table = Hashtbl.create 256 in
  List.iter
    (fun (m : Ilmod.t) ->
      List.iter
        (fun (f : Func.t) ->
          Hashtbl.replace table f.Func.name
            (Func_binding { arity = f.Func.arity }))
        m.Ilmod.funcs;
      List.iter
        (fun (g : Ilmod.global) ->
          Hashtbl.replace table g.Ilmod.gname
            (Global_binding { size = g.Ilmod.size }))
        m.Ilmod.globals)
    modules;
  { resolve = Hashtbl.find_opt table }

let compose a b =
  {
    resolve =
      (fun name ->
        match a.resolve name with Some _ as r -> r | None -> b.resolve name);
  }

type violation = {
  phase : string;
  func : string;
  instr : string option;
  message : string;
}

exception Violation of violation list

let pp_violation ppf v =
  Format.fprintf ppf "[%s after %s]%t %s" v.func v.phase
    (fun ppf ->
      match v.instr with
      | Some i -> Format.fprintf ppf " at `%s`" i
      | None -> ())
    v.message

(* Must-defined sets as byte-array bitsets; register counts are small
   but routinely exceed the word size after inlining. *)
module Bits = struct
  let create n = Bytes.make ((n + 8) / 8) '\x00'
  let copy = Bytes.copy
  let equal = Bytes.equal
  let mem t r = Char.code (Bytes.get t (r lsr 3)) land (1 lsl (r land 7)) <> 0

  let add t r =
    Bytes.set t (r lsr 3)
      (Char.chr (Char.code (Bytes.get t (r lsr 3)) lor (1 lsl (r land 7))))

  (* a <- a ∩ b *)
  let inter a b =
    for i = 0 to Bytes.length a - 1 do
      Bytes.set a i
        (Char.chr (Char.code (Bytes.get a i) land Char.code (Bytes.get b i)))
    done

  let full n =
    let t = create n in
    for r = 0 to n - 1 do add t r done;
    t
end

let check_func ?env ~phase (f : Func.t) =
  let issues = ref [] in
  let report ?instr fmt =
    Format.kasprintf
      (fun message ->
        issues := { phase; func = f.Func.name; instr; message } :: !issues)
      fmt
  in
  let rendered i = Format.asprintf "%a" Instr.pp_instr i in
  let rendered_term t = Format.asprintf "%a" Instr.pp_terminator t in
  if f.Func.arity > f.Func.next_reg then
    report "arity %d exceeds register counter %d" f.Func.arity f.Func.next_reg;
  if f.Func.blocks = [] then report "function has no blocks"
  else begin
    (* --- labels and CFG edges --- *)
    let labels = Hashtbl.create 16 in
    List.iter
      (fun (b : Func.block) ->
        if Hashtbl.mem labels b.Func.label then
          report "duplicate block label L%d" b.Func.label
        else Hashtbl.replace labels b.Func.label ();
        if b.Func.label < 0 || b.Func.label >= f.Func.next_label then
          report "block label L%d outside label counter %d" b.Func.label
            f.Func.next_label)
      f.Func.blocks;
    if not (Hashtbl.mem labels f.Func.entry) then
      report "entry label L%d does not exist" f.Func.entry;
    List.iter
      (fun (b : Func.block) ->
        List.iter
          (fun target ->
            if not (Hashtbl.mem labels target) then
              report ~instr:(rendered_term b.Func.term)
                "branch from L%d to missing label L%d" b.Func.label target)
          (Instr.targets b.Func.term))
      f.Func.blocks;
    (* --- register ranges, call sites, linkage agreement --- *)
    let check_reg instr r =
      if r < 0 || r >= f.Func.next_reg then
        report ~instr "register r%d outside register counter %d" r
          f.Func.next_reg
    in
    let resolve name =
      match env with
      | None -> None
      | Some e -> (
        match Intrinsics.arity name with
        | Some a -> Some (Some (Func_binding { arity = a }))
        | None -> Some (e.resolve name))
    in
    let check_callee instr callee nargs =
      match resolve callee with
      | None -> ()  (* no environment: linkage unchecked *)
      | Some None ->
        report ~instr "call to %s, which no function defines (dangling ref?)"
          callee
      | Some (Some (Global_binding _)) ->
        report ~instr "call target %s is a global, not a function" callee
      | Some (Some (Func_binding { arity })) ->
        if nargs <> arity then
          report ~instr "call to %s passes %d args, expects %d" callee nargs
            arity
    in
    let check_base instr base =
      match resolve base with
      | None -> ()
      | Some None -> report ~instr "reference to undefined global %s" base
      | Some (Some (Func_binding _)) ->
        report ~instr "address base %s is a function, not a global" base
      | Some (Some (Global_binding _)) -> ()
    in
    let sites = Hashtbl.create 16 in
    List.iter
      (fun (b : Func.block) ->
        List.iter
          (fun i ->
            let instr = rendered i in
            Option.iter (check_reg instr) (Instr.def i);
            List.iter (check_reg instr) (Instr.uses i);
            match i with
            | Instr.Call { callee; args; site; _ } ->
              check_callee instr callee (List.length args);
              if site < 0 || site >= f.Func.next_site then
                report ~instr "call site s%d outside site counter %d" site
                  f.Func.next_site;
              if Hashtbl.mem sites site then
                report ~instr "duplicate call site id s%d" site
              else Hashtbl.replace sites site ()
            | Instr.Load (_, { Instr.base; _ }) -> check_base instr base
            | Instr.Store ({ Instr.base; _ }, _) -> check_base instr base
            | Instr.Move _ | Instr.Unop _ | Instr.Binop _ | Instr.Probe _ -> ())
          b.Func.instrs;
        List.iter
          (check_reg (rendered_term b.Func.term))
          (Instr.term_uses b.Func.term))
      f.Func.blocks;
    (* --- def-before-use over the reachable CFG --- *)
    (* Must-defined forward dataflow: in(entry) = parameters; in(b) =
       ∩ out(preds); out(b) = in(b) ∪ defs(b).  Unreachable blocks are
       skipped — they are dead weight a later CFG cleanup removes, and
       they have no defined entry state. *)
    let nregs = max f.Func.next_reg f.Func.arity in
    (* The CFG tables are label-indexed: a negative or absurd label
       (already reported above) leaves this check out. *)
    let indexable l = l >= 0 && l < 1_000_000 in
    if
      nregs < 100_000
      && Hashtbl.mem labels f.Func.entry
      && List.for_all
           (fun (b : Func.block) ->
             indexable b.Func.label && List.for_all indexable (Instr.targets b.Func.term))
           f.Func.blocks
    then begin
      let ix = Func.index f in
      let reachable = Func.reachable f ix in
      let defs_of (b : Func.block) from =
        let acc = Bits.copy from in
        List.iter (fun i -> Option.iter (Bits.add acc) (Instr.def i)) b.Func.instrs;
        acc
      in
      let entry_in = Bits.create nregs in
      for r = 0 to f.Func.arity - 1 do
        Bits.add entry_in r
      done;
      let in_sets = Array.make ix.Func.bound None in
      in_sets.(f.Func.entry) <- Some entry_in;
      let preds = Func.predecessors f ix in
      let order =
        List.filter (fun (b : Func.block) -> reachable.(b.Func.label)) f.Func.blocks
      in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (b : Func.block) ->
            let in_b =
              if b.Func.label = f.Func.entry then entry_in
              else begin
                let reach_preds = List.filter (fun p -> reachable.(p)) preds.(b.Func.label) in
                (* A reachable non-entry block has at least one
                   reachable predecessor by construction. *)
                let acc = Bits.full nregs in
                List.iter
                  (fun p ->
                    match (in_sets.(p), ix.Func.block_at.(p)) with
                    | Some in_p, Some pb -> Bits.inter acc (defs_of pb in_p)
                    | _ -> ())
                  reach_preds;
                acc
              end
            in
            match in_sets.(b.Func.label) with
            | Some old when Bits.equal old in_b -> ()
            | _ ->
              in_sets.(b.Func.label) <- Some in_b;
              changed := true)
          order
      done;
      List.iter
        (fun (b : Func.block) ->
          match in_sets.(b.Func.label) with
          | None -> ()
          | Some in_b ->
            let defined = Bits.copy in_b in
            let use instr r =
              if r >= 0 && r < nregs && not (Bits.mem defined r) then
                report ~instr "use of r%d before any definition reaches it" r
            in
            List.iter
              (fun i ->
                let instr = rendered i in
                List.iter (use instr) (Instr.uses i);
                Option.iter
                  (fun d -> if d >= 0 && d < nregs then Bits.add defined d)
                  (Instr.def i))
              b.Func.instrs;
            List.iter
              (use (rendered_term b.Func.term))
              (Instr.term_uses b.Func.term))
        order
    end
  end;
  List.rev !issues

let check_func_exn ?env ~phase f =
  match check_func ?env ~phase f with [] -> () | vs -> raise (Violation vs)

let check_modules ?env ~phase modules =
  let env = match env with Some e -> e | None -> env_of_modules modules in
  let dup_issues = ref [] in
  let seen = Hashtbl.create 256 in
  List.iter
    (fun (m : Ilmod.t) ->
      let record kind name =
        match Hashtbl.find_opt seen name with
        | Some first ->
          dup_issues :=
            {
              phase;
              func = name;
              instr = None;
              message =
                Printf.sprintf "%s %s defined by both %s and %s" kind name
                  first m.Ilmod.mname;
            }
            :: !dup_issues
        | None -> Hashtbl.replace seen name m.Ilmod.mname
      in
      List.iter (fun (f : Func.t) -> record "function" f.Func.name) m.Ilmod.funcs;
      List.iter
        (fun (g : Ilmod.global) -> record "global" g.Ilmod.gname)
        m.Ilmod.globals)
    modules;
  List.rev !dup_issues
  @ List.concat_map
      (fun (m : Ilmod.t) ->
        List.concat_map (fun f -> check_func ~env ~phase f) m.Ilmod.funcs)
      modules
