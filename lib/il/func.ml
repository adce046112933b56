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

(* 1 + the largest label a block, a terminator or the entry names:
   every label the routine can hand out indexes a table this long,
   dangling branch targets included. *)
let label_bound t =
  let m = ref t.entry in
  let see l = if l > !m then m := l in
  List.iter
    (fun b ->
      see b.label;
      match b.term with
      | Instr.Jmp l -> see l
      | Instr.Br { ifso; ifnot; _ } ->
        see ifso;
        see ifnot
      | Instr.Ret _ -> ())
    t.blocks;
  !m + 1

type index = {
  bound : int;
  block_at : block option array;
  npreds : int array;
  pred : Instr.label array;
}

let index t =
  let bound = label_bound t in
  let block_at = Array.make bound None in
  let npreds = Array.make bound 0 in
  let pred = Array.make bound (-1) in
  let edge p l =
    npreds.(l) <- npreds.(l) + 1;
    pred.(l) <- p
  in
  List.iter
    (fun b ->
      if Option.is_none block_at.(b.label) then block_at.(b.label) <- Some b;
      match b.term with
      | Instr.Jmp l -> edge b.label l
      | Instr.Br { ifso; ifnot; _ } ->
        edge b.label ifso;
        edge b.label ifnot
      | Instr.Ret _ -> ())
    t.blocks;
  { bound; block_at; npreds; pred }

let sole_pred ix l = if ix.npreds.(l) = 1 then ix.pred.(l) else -1

let predecessors t ix =
  let preds = Array.make ix.bound [] in
  (* Built reversed, then flipped once: layout order without an
     append per edge. *)
  List.iter
    (fun b ->
      List.iter (fun l -> preds.(l) <- b.label :: preds.(l)) (Instr.targets b.term))
    t.blocks;
  Array.map List.rev preds

let reachable t ix =
  let seen = Array.make ix.bound false in
  let rec visit label =
    if not seen.(label) then begin
      seen.(label) <- true;
      match ix.block_at.(label) with
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
