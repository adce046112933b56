let hash (s : string) =
  let h = ref (String.length s) in
  for i = 0 to String.length s - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get s i)
  done;
  !h land max_int

include Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = hash
end)
