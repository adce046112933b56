type t = int64

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let add_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let empty = fnv_offset

let add_int64 h v =
  let h = ref h in
  for shift = 0 to 7 do
    h := add_byte !h (Int64.to_int (Int64.shift_right_logical v (shift * 8)))
  done;
  !h

let seeded seed = add_int64 empty seed

let add_int h n = add_int64 h (Int64.of_int n)

(* A direct loop over a local state, which the compiler keeps unboxed;
   the same bits as folding [add_byte] over the bytes. *)
let add_string h s =
  let h = ref (add_int h (String.length s)) in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        fnv_prime
  done;
  !h

let to_hex = Printf.sprintf "%016Lx"

(* Both passes advance together, one read of each byte. *)
let add_string2 (h1, h2) s =
  let n = String.length s in
  let h1 = ref (add_int h1 n) and h2 = ref (add_int h2 n) in
  for i = 0 to n - 1 do
    let b = Int64.of_int (Char.code (String.unsafe_get s i)) in
    h1 := Int64.mul (Int64.logxor !h1 b) fnv_prime;
    h2 := Int64.mul (Int64.logxor !h2 b) fnv_prime
  done;
  (!h1, !h2)

let of_strings parts =
  let h1, h2 =
    List.fold_left add_string2
      (seeded 0x9e3779b97f4a7c15L, seeded 0xc2b2ae3d27d4eb4fL)
      parts
  in
  to_hex h1 ^ to_hex h2
