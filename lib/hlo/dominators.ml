module Instr = Cmo_il.Instr
module Func = Cmo_il.Func

(* Nodes are numbered by reverse-postorder position: the entry is 0
   and every node's immediate dominator has a smaller number, which
   is what makes [intersect] and [dominates] simple index walks. *)
type t = {
  labels : Instr.label array;  (* RPO position -> label *)
  index : (Instr.label, int) Hashtbl.t;  (* label -> RPO position *)
  idom : int array;  (* RPO position -> idom's position; entry -> 0 *)
}

(* Depth-first from the entry over one label -> block table.  A
   target without a block (a dangling label) is still a node, with no
   successors. *)
let rpo_with_blocks (f : Func.t) =
  let blocks = Func.block_table f in
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec dfs label =
    if not (Hashtbl.mem visited label) then begin
      Hashtbl.replace visited label ();
      (match Hashtbl.find_opt blocks label with
      | Some b -> List.iter dfs (Instr.targets b.Func.term)
      | None -> ());
      order := label :: !order
    end
  in
  if f.Func.blocks <> [] then dfs f.Func.entry;
  (!order, blocks)

let rpo f = fst (rpo_with_blocks f)

(* Cooper–Harvey–Kennedy over RPO positions. *)
let compute (f : Func.t) =
  let order, blocks = rpo_with_blocks f in
  let labels = Array.of_list order in
  let n = Array.length labels in
  let index = Hashtbl.create (2 * n) in
  Array.iteri (fun i l -> Hashtbl.replace index l i) labels;
  let preds = Array.make n [] in
  Array.iteri
    (fun u l ->
      match Hashtbl.find_opt blocks l with
      | Some b ->
        List.iter
          (fun s ->
            let v = Hashtbl.find index s in
            preds.(v) <- u :: preds.(v))
          (Instr.targets b.Func.term)
      | None -> ())
    labels;
  let idom = Array.make n (-1) in
  if n > 0 then idom.(0) <- 0;
  let rec intersect a b =
    if a = b then a else if a > b then intersect idom.(a) b else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for v = 1 to n - 1 do
      let d =
        List.fold_left
          (fun acc p ->
            if idom.(p) < 0 then acc else if acc < 0 then p else intersect p acc)
          (-1) preds.(v)
      in
      if d <> idom.(v) then begin
        idom.(v) <- d;
        changed := true
      end
    done
  done;
  { labels; index; idom }

let idom t label =
  match Hashtbl.find_opt t.index label with
  | Some i when i > 0 -> Some t.labels.(t.idom.(i))
  | Some _ | None -> None

let dominates t a b =
  match (Hashtbl.find_opt t.index a, Hashtbl.find_opt t.index b) with
  | Some ia, Some ib ->
    let x = ref ib in
    while !x > ia do
      x := t.idom.(!x)
    done;
    !x = ia
  | _ -> false

let reverse_postorder t = Array.to_list t.labels

let modeled_bytes t = 64 + (48 * Array.length t.labels)
