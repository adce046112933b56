(* Host-speed reference job for perfbench/run.py: a fixed amount of
   allocation-heavy work (balanced maps, a hash table, a sort) shaped
   like the compiler's own, independent of the code under test.  The
   benchmark times it between builds to scale their latencies to
   nominal host speed.

     refjob.exe N    does N rounds of work and prints a checksum *)

module M = Map.Make (Int)

let () =
  let n = int_of_string Sys.argv.(1) in
  let m = ref M.empty in
  let h = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    let k = i * 7919 mod 1000003 in
    m := M.add k (string_of_int i) !m;
    Hashtbl.replace h (k lxor 0x5555) [ i; k ];
    if i mod 3 = 0 then m := M.remove (i * 31 mod 1000003) !m
  done;
  let l = M.fold (fun k v l -> (k + String.length v) :: l) !m [] in
  let l = List.sort compare (List.rev_map (fun x -> x * 13 mod 65537) l) in
  let acc = List.fold_left ( + ) 0 l in
  let acc = Hashtbl.fold (fun _ v acc -> acc + List.length v) h acc in
  Printf.printf "%d\n" acc
