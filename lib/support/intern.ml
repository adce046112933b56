module Table = Strtbl

type t = {
  table : int Table.t;
  mutable names : string array;
  mutable count : int;
}

let create () = { table = Table.create 64; names = Array.make 64 ""; count = 0 }

let grow t =
  let cap = Array.length t.names in
  if t.count = cap then begin
    let names = Array.make (cap * 2) "" in
    Array.blit t.names 0 names 0 cap;
    t.names <- names
  end

let intern t s =
  match Table.find_opt t.table s with
  | Some id -> id
  | None ->
    let id = t.count in
    grow t;
    t.names.(id) <- s;
    t.count <- t.count + 1;
    Table.add t.table s id;
    id

let find_opt t s = Table.find_opt t.table s

let name t id =
  if id < 0 || id >= t.count then invalid_arg "Intern.name: unknown id";
  t.names.(id)

let count t = t.count

let iter t f =
  for id = 0 to t.count - 1 do
    f id t.names.(id)
  done
