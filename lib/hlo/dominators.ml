module Instr = Cmo_il.Instr
module Func = Cmo_il.Func

(* Nodes are numbered by reverse-postorder position: the entry is 0
   and every node's immediate dominator has a smaller number, which
   is what makes [intersect] and [dominates] simple index walks. *)
type t = {
  labels : Instr.label array;  (* RPO position -> label *)
  index : int array;  (* label -> RPO position, -1 when unreachable *)
  idom : int array;  (* RPO position -> idom's position; entry -> 0 *)
}

(* Depth-first from the entry over the routine's label index.  A
   target without a block (a dangling label) is still a node, with no
   successors. *)
let rpo ?index (f : Func.t) =
  let ix = match index with Some ix -> ix | None -> Func.index f in
  let visited = Array.make ix.Func.bound false in
  let order = ref [] in
  let rec dfs label =
    if not visited.(label) then begin
      visited.(label) <- true;
      (match ix.Func.block_at.(label) with
      | Some b -> List.iter dfs (Instr.targets b.Func.term)
      | None -> ());
      order := label :: !order
    end
  in
  if f.Func.blocks <> [] then dfs f.Func.entry;
  !order

(* Cooper–Harvey–Kennedy over RPO positions. *)
let compute (f : Func.t) =
  let ix = Func.index f in
  let labels = Array.of_list (rpo ~index:ix f) in
  let n = Array.length labels in
  let index = Array.make ix.Func.bound (-1) in
  Array.iteri (fun i l -> index.(l) <- i) labels;
  let preds = Array.make n [] in
  Array.iteri
    (fun u l ->
      match ix.Func.block_at.(l) with
      | Some b ->
        List.iter
          (fun s ->
            let v = index.(s) in
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

(* RPO position of any label, -1 when unreachable or out of range. *)
let position t label =
  if label >= 0 && label < Array.length t.index then t.index.(label) else -1

let idom t label =
  let i = position t label in
  if i > 0 then Some t.labels.(t.idom.(i)) else None

let dominates t a b =
  let ia = position t a and ib = position t b in
  if ia < 0 || ib < 0 then false
  else begin
    let x = ref ib in
    while !x > ia do
      x := t.idom.(!x)
    done;
    !x = ia
  end

let reverse_postorder t = Array.to_list t.labels

let modeled_bytes t = 64 + (48 * Array.length t.labels)
