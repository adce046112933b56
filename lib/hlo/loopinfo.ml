module Instr = Cmo_il.Instr
module Func = Cmo_il.Func

type loop = {
  header : Instr.label;
  body : Instr.label list;
  depth : int;
}

type t = {
  all : loop list;
  innermost : loop option array;  (* label -> innermost loop holding it *)
}

let compute ?doms (f : Func.t) =
  let doms = match doms with Some d -> d | None -> Dominators.compute f in
  let bound = Func.label_bound f in
  (* Predecessors are walked only from a back edge. *)
  let preds = lazy (Func.predecessors f (Func.index f)) in
  (* Collect back edges grouped by header.  [dominates] is false when
     the source is unreachable, so unreachable blocks contribute no
     back edge without a separate reachability pass. *)
  let bodies = Array.make bound [||] in  (* header -> label-indexed membership *)
  let headers_rev = ref [] in
  List.iter
    (fun (b : Func.block) ->
      List.iter
        (fun succ ->
          if Dominators.dominates doms succ b.Func.label then begin
            (* back edge b -> succ *)
            let body =
              if Array.length bodies.(succ) > 0 then bodies.(succ)
              else begin
                let body = Array.make bound false in
                body.(succ) <- true;
                bodies.(succ) <- body;
                headers_rev := succ :: !headers_rev;
                body
              end
            in
            (* Walk predecessors from the back-edge source up to the
               header. *)
            let rec pull label =
              if not body.(label) then begin
                body.(label) <- true;
                List.iter pull (Lazy.force preds).(label)
              end
            in
            pull b.Func.label
          end)
        (Instr.targets b.Func.term))
    f.Func.blocks;
  let headers = List.rev !headers_rev in
  (* Depth: number of loop bodies a header is contained in. *)
  let body_labels header =
    let body = bodies.(header) in
    List.filter_map
      (fun (b : Func.block) -> if body.(b.Func.label) then Some b.Func.label else None)
      f.Func.blocks
  in
  let depth_of_header h =
    List.length (List.filter (fun h' -> h' <> h && bodies.(h').(h)) headers) + 1
  in
  let all =
    List.map
      (fun h -> { header = h; body = body_labels h; depth = depth_of_header h })
      headers
    |> List.sort (fun a b ->
           match compare a.depth b.depth with
           | 0 -> compare a.header b.header
           | c -> c)
  in
  let innermost = Array.make (if all = [] then 0 else bound) None in
  (* Process outermost to innermost so deeper loops overwrite. *)
  List.iter
    (fun loop -> List.iter (fun label -> innermost.(label) <- Some loop) loop.body)
    all;
  { all; innermost }

let loops t = t.all

let loop_of t label =
  if label >= 0 && label < Array.length t.innermost then t.innermost.(label) else None

let depth_of t label =
  match loop_of t label with Some l -> l.depth | None -> 0

let modeled_bytes t =
  List.fold_left (fun acc l -> acc + 32 + (16 * List.length l.body)) 64 t.all
