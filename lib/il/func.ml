type block = {
  label : Instr.label;
  mutable instrs : Instr.instr list;
  mutable term : Instr.terminator;
  mutable freq : float;
}

type linkage = Exported | Local

type t = {
  name : string;
  arity : int;
  mutable linkage : linkage;
  mutable entry : Instr.label;
  mutable blocks : block list;
  mutable next_reg : int;
  mutable next_label : int;
  mutable next_site : int;
  mutable src_lines : int;
}

let create ~name ~arity ~linkage =
  {
    name;
    arity;
    linkage;
    entry = 0;
    blocks = [];
    next_reg = arity;
    next_label = 0;
    next_site = 0;
    src_lines = 0;
  }

let new_label t =
  let l = t.next_label in
  t.next_label <- l + 1;
  l

let new_reg t =
  let r = t.next_reg in
  t.next_reg <- r + 1;
  r

let new_site t =
  let s = t.next_site in
  t.next_site <- s + 1;
  s

let add_block t ?(freq = 0.0) instrs term =
  let block = { label = new_label t; instrs; term; freq } in
  t.blocks <- t.blocks @ [ block ];
  block

let find_block_opt t label = List.find_opt (fun b -> b.label = label) t.blocks

let find_block t label =
  match find_block_opt t label with
  | Some b -> b
  | None -> raise Not_found

let entry_block t = find_block t t.entry

let block_table t =
  let table = Hashtbl.create (List.length t.blocks) in
  List.iter
    (fun b -> if not (Hashtbl.mem table b.label) then Hashtbl.add table b.label b)
    t.blocks;
  table

let predecessors t =
  let preds = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace preds b.label []) t.blocks;
  (* Built reversed, then flipped once: layout order without an
     append per edge. *)
  List.iter
    (fun b ->
      List.iter
        (fun succ ->
          let ps = Option.value ~default:[] (Hashtbl.find_opt preds succ) in
          Hashtbl.replace preds succ (b.label :: ps))
        (Instr.targets b.term))
    t.blocks;
  Hashtbl.filter_map_inplace (fun _ ps -> Some (List.rev ps)) preds;
  preds

let reachable t =
  let blocks = block_table t in
  let seen = Hashtbl.create 16 in
  let rec visit label =
    if not (Hashtbl.mem seen label) then begin
      Hashtbl.replace seen label ();
      match Hashtbl.find_opt blocks label with
      | Some b -> List.iter visit (Instr.targets b.term)
      | None -> ()
    end
  in
  if t.blocks <> [] then visit t.entry;
  seen

let instr_count t =
  List.fold_left (fun acc b -> acc + List.length b.instrs) 0 t.blocks

let site_calls t =
  List.concat_map
    (fun b ->
      List.filter_map
        (function Instr.Call c -> Some (c.Instr.site, c) | _ -> None)
        b.instrs)
    t.blocks

let copy t =
  let copy_instr = function
    | Instr.Call c -> Instr.Call { c with Instr.dst = c.Instr.dst }
    | i -> i
  in
  {
    t with
    blocks =
      List.map
        (fun b -> { b with instrs = List.map copy_instr b.instrs })
        t.blocks;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>func %s(%d args)%s [%d lines]"
    t.name t.arity
    (match t.linkage with Exported -> "" | Local -> " local")
    t.src_lines;
  List.iter
    (fun b ->
      Format.fprintf ppf "@,L%d%s%t:" b.label
        (if b.label = t.entry then " (entry)" else "")
        (fun ppf -> if b.freq > 0.0 then Format.fprintf ppf " {freq=%.0f}" b.freq);
      List.iter (fun i -> Format.fprintf ppf "@,  %a" Instr.pp_instr i) b.instrs;
      Format.fprintf ppf "@,  %a" Instr.pp_terminator b.term)
    t.blocks;
  Format.fprintf ppf "@]"
