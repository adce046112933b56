module Codec = Cmo_support.Codec

type key =
  | Fentry of string
  | Block of string * int
  | Edge of string * int * int

type t = { counts : (key, float) Hashtbl.t }

let create () = { counts = Hashtbl.create 256 }

let add t key v =
  let prev = Option.value ~default:0.0 (Hashtbl.find_opt t.counts key) in
  Hashtbl.replace t.counts key (prev +. v)

let get t key = Option.value ~default:0.0 (Hashtbl.find_opt t.counts key)

let mem t key = Hashtbl.mem t.counts key

let is_empty t = Hashtbl.length t.counts = 0

let compare_key a b =
  match (a, b) with
  | Fentry f, Fentry g -> String.compare f g
  | Block (f, l), Block (g, m) ->
    let c = String.compare f g in
    if c <> 0 then c else Int.compare l m
  | Edge (f, a1, b1), Edge (g, a2, b2) ->
    let c = String.compare f g in
    if c <> 0 then c
    else
      let c = Int.compare a1 a2 in
      if c <> 0 then c else Int.compare b1 b2
  | Fentry _, (Block _ | Edge _) | Block _, Edge _ -> -1
  | Block _, Fentry _ | Edge _, (Fentry _ | Block _) -> 1

let entries t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counts []
  |> List.sort (fun (a, _) (b, _) -> compare_key a b)

let fold f t init = Hashtbl.fold f t.counts init

let merge ~into src = Hashtbl.iter (fun k v -> add into k v) src.counts

(* Weighted merge: each count contributes scaled by [weight].  A key
   appears at most once per source db, so iteration order over [src]
   cannot change the sums — cross-shard accumulation order is the
   caller's responsibility (Ingest canonicalizes it). *)
let merge_weighted ~into ~weight src =
  if weight <> 0.0 then
    Hashtbl.iter (fun k v -> add into k (weight *. v)) src.counts

let scale t f =
  (* Snapshot the keys: mutating a Hashtbl mid-iteration is UB. *)
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.counts [] in
  List.iter
    (fun k -> Hashtbl.replace t.counts k (f *. Hashtbl.find t.counts k))
    keys

(* Exponential staleness decay: age 0 multiplies by [rate^0 = 1] and
   is required to be a byte-level identity, so it is special-cased
   away from float exponentiation entirely. *)
let decay t ~rate ~age =
  if age < 0 then invalid_arg "Db.decay: negative age";
  if age > 0 then scale t (rate ** float_of_int age)

let copy t =
  let c = create () in
  Hashtbl.iter (fun k v -> Hashtbl.replace c.counts k v) t.counts;
  c

let total t = Hashtbl.fold (fun _ v acc -> acc +. v) t.counts 0.0

let version = 1

(* Canonical serialization: entries are written in sorted key order,
   so two databases holding bitwise-equal counts serialize to the same
   bytes no matter what order the counts were accumulated in.  Floats
   are written as their IEEE bits (Codec.float), never formatted. *)
let encode t =
  let w = Codec.Writer.create () in
  Codec.Writer.byte w version;
  Codec.Writer.uvarint w (Hashtbl.length t.counts);
  List.iter
    (fun (key, count) ->
      (match key with
      | Fentry f ->
        Codec.Writer.byte w 0;
        Codec.Writer.string w f
      | Block (f, l) ->
        Codec.Writer.byte w 1;
        Codec.Writer.string w f;
        Codec.Writer.uvarint w l
      | Edge (f, a, b) ->
        Codec.Writer.byte w 2;
        Codec.Writer.string w f;
        Codec.Writer.uvarint w a;
        Codec.Writer.uvarint w b);
      Codec.Writer.float w count)
    (entries t);
  Codec.Writer.contents w

(* Atomic (temp + fsync + rename): a crash mid-save leaves the old
   profile, never a torn one that a later build chokes on. *)
let save t path = Cmo_support.Fsio.atomic_write path (encode t)

let decode data =
  let r = Codec.Reader.of_string data in
  let v = Codec.Reader.byte r in
  if v <> version then
    Codec.Reader.corrupt
      (Printf.sprintf "profile db version mismatch: %d vs %d" v version);
  let t = create () in
  let n = Codec.Reader.uvarint r in
  for _ = 1 to n do
    let key =
      match Codec.Reader.byte r with
      | 0 -> Fentry (Codec.Reader.string r)
      | 1 ->
        let f = Codec.Reader.string r in
        Block (f, Codec.Reader.uvarint r)
      | 2 ->
        let f = Codec.Reader.string r in
        let a = Codec.Reader.uvarint r in
        let b = Codec.Reader.uvarint r in
        Edge (f, a, b)
      | tag -> Codec.Reader.corrupt (Printf.sprintf "bad key tag %d" tag)
    in
    add t key (Codec.Reader.float r)
  done;
  t

let load path = decode (Cmo_support.Fsio.read_file path)

let pp_key ppf = function
  | Fentry f -> Format.fprintf ppf "entry(%s)" f
  | Block (f, l) -> Format.fprintf ppf "block(%s, L%d)" f l
  | Edge (f, a, b) -> Format.fprintf ppf "edge(%s, L%d->L%d)" f a b
