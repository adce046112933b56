module Instr = Cmo_il.Instr
module Func = Cmo_il.Func

(* Chains are lists of labels; we keep, per chain id, the label list
   plus head/tail for O(1) merging decisions. *)
type chain = { mutable labels : Instr.label list (* in order *) }

let run (f : Func.t) =
  let blocks = f.Func.blocks in
  let has_profile =
    List.exists (fun (b : Func.block) -> b.Func.freq > 0.0) blocks
  in
  if (not has_profile) || List.length blocks < 3 then false
  else begin
    let freq_of = Hashtbl.create 16 in
    List.iter
      (fun (b : Func.block) -> Hashtbl.replace freq_of b.Func.label b.Func.freq)
      blocks;
    let freq l = Option.value ~default:0.0 (Hashtbl.find_opt freq_of l) in
    (* Weighted CFG edges, deterministic order. *)
    let edges = ref [] in
    List.iteri
      (fun bias_base (b : Func.block) ->
        List.iteri
          (fun i succ ->
            (* Never chain onto the entry block: it must stay first in
               the layout (execution starts at the function's base). *)
            if succ <> b.Func.label && succ <> f.Func.entry then begin
              let w = Float.min b.Func.freq (freq succ) in
              (* Prefer the fall-through arm of a conditional (the
                 second target, [ifnot]) on ties; bias keeps sorting
                 deterministic without affecting magnitudes. *)
              let bias = float_of_int (i + bias_base mod 7) *. 1e-9 in
              edges := (w -. bias, b.Func.label, succ) :: !edges
            end)
          (Instr.targets b.Func.term))
      blocks;
    let sorted_edges =
      List.sort
        (fun (w1, s1, d1) (w2, s2, d2) ->
          match compare w2 w1 with
          | 0 -> compare (s1, d1) (s2, d2)
          | c -> c)
        !edges
    in
    (* Bottom-up chaining. *)
    let chain_of = Hashtbl.create 16 in
    List.iter
      (fun (b : Func.block) ->
        Hashtbl.replace chain_of b.Func.label { labels = [ b.Func.label ] })
      blocks;
    List.iter
      (fun (_, src, dst) ->
        let cs = Hashtbl.find chain_of src in
        let cd = Hashtbl.find chain_of dst in
        if cs != cd then begin
          let src_is_tail =
            match List.rev cs.labels with
            | last :: _ -> last = src
            | [] -> false
          in
          let dst_is_head =
            match cd.labels with first :: _ -> first = dst | [] -> false
          in
          if src_is_tail && dst_is_head then begin
            cs.labels <- cs.labels @ cd.labels;
            List.iter (fun l -> Hashtbl.replace chain_of l cs) cd.labels
          end
        end)
      sorted_edges;
    (* Order chains: the entry's chain first, then by descending peak
       frequency, zero-frequency chains last; ties by first label. *)
    let seen = Hashtbl.create 16 in
    let chains =
      List.filter_map
        (fun (b : Func.block) ->
          let c = Hashtbl.find chain_of b.Func.label in
          match c.labels with
          | first :: _ when first = b.Func.label && not (Hashtbl.mem seen first)
            ->
            Hashtbl.replace seen first ();
            Some c
          | _ -> None)
        blocks
    in
    let peak c = List.fold_left (fun acc l -> Float.max acc (freq l)) 0.0 c.labels in
    let entry_chain = Hashtbl.find chain_of f.Func.entry in
    let rest = List.filter (fun c -> c != entry_chain) chains in
    let rest_sorted =
      List.stable_sort (fun c1 c2 -> compare (peak c2) (peak c1)) rest
    in
    let order = List.concat_map (fun c -> c.labels) (entry_chain :: rest_sorted) in
    let by_label = Hashtbl.create 16 in
    List.iter (fun (b : Func.block) -> Hashtbl.replace by_label b.Func.label b) blocks;
    let new_blocks = List.map (fun l -> Hashtbl.find by_label l) order in
    let changed =
      List.map (fun (b : Func.block) -> b.Func.label) new_blocks
      <> List.map (fun (b : Func.block) -> b.Func.label) blocks
    in
    f.Func.blocks <- new_blocks;
    changed
  end
