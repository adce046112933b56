let backward ~nbits ~succs ~gen ~kill =
  let n = Array.length gen in
  (* [live_in] starts at gen and only grows, so after the fixpoint it
     is exactly gen U (out - kill). *)
  let live_in = Array.map Bitset.copy gen in
  let live_out = Array.init n (fun _ -> Bitset.create nbits) in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = n - 1 downto 0 do
      let out = live_out.(b) in
      Array.iter (fun s -> ignore (Bitset.union_into ~into:out live_in.(s))) succs.(b);
      (* Only a growing live-in can change another node's sets. *)
      if Bitset.union_diff_into ~into:live_in.(b) out ~minus:kill.(b) then
        changed := true
    done
  done;
  (live_in, live_out)
