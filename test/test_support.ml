(* Tests for the support substrate: PRNG determinism and
   distributions, interning, the binary codec, statistics, word
   bitsets and the backward dataflow solver. *)

module Prng = Cmo_support.Prng
module Intern = Cmo_support.Intern
module Codec = Cmo_support.Codec
module Stats = Cmo_support.Stats
module Bitset = Cmo_support.Bitset
module Dataflow = Cmo_support.Dataflow

let test_prng_deterministic () =
  let a = Prng.create 42 in
  let b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 in
  let b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Prng.next_int64 a) (Prng.next_int64 b)) then
      differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_prng_split_independent () =
  let a = Prng.create 7 in
  let child = Prng.split a in
  (* Splitting must not produce the parent's next values. *)
  let c1 = Prng.next_int64 child in
  let p1 = Prng.next_int64 a in
  Alcotest.(check bool) "child differs from parent" true (not (Int64.equal c1 p1))

let test_prng_copy () =
  let a = Prng.create 13 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy replays" (Prng.next_int64 a) (Prng.next_int64 b)

let test_prng_int_bounds () =
  let t = Prng.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.int t 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_in_bounds () =
  let t = Prng.create 6 in
  for _ = 1 to 1000 do
    let v = Prng.int_in t (-3) 9 in
    Alcotest.(check bool) "in range" true (v >= -3 && v <= 9)
  done

let test_prng_float_bounds () =
  let t = Prng.create 8 in
  for _ = 1 to 1000 do
    let v = Prng.float t 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_prng_chance_extremes () =
  let t = Prng.create 9 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always true" true (Prng.chance t 1.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 always false" false (Prng.chance t 0.0)
  done

let test_prng_choose_weighted () =
  let t = Prng.create 10 in
  (* Zero-weight items must never be chosen. *)
  let items = [| ("a", 0.0); ("b", 1.0); ("c", 0.0) |] in
  for _ = 1 to 200 do
    Alcotest.(check string) "only positive weight" "b"
      (Prng.choose_weighted t items)
  done

let test_prng_shuffle_permutation () =
  let t = Prng.create 11 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle t arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_prng_zipf_skew () =
  let t = Prng.create 12 in
  let counts = Array.make 20 0 in
  for _ = 1 to 20_000 do
    let r = Prng.zipf t ~n:20 ~s:1.2 in
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check bool) "rank 0 dominates rank 10" true
    (counts.(0) > 3 * counts.(10));
  Alcotest.(check bool) "all ranks in range" true
    (Array.for_all (fun c -> c >= 0) counts)

let test_intern_roundtrip () =
  let t = Intern.create () in
  let a = Intern.intern t "alpha" in
  let b = Intern.intern t "beta" in
  Alcotest.(check int) "dense from zero" 0 a;
  Alcotest.(check int) "second id" 1 b;
  Alcotest.(check int) "idempotent" a (Intern.intern t "alpha");
  Alcotest.(check string) "inverse" "beta" (Intern.name t b);
  Alcotest.(check int) "count" 2 (Intern.count t)

let test_intern_find_opt () =
  let t = Intern.create () in
  Alcotest.(check (option int)) "missing" None (Intern.find_opt t "x");
  let id = Intern.intern t "x" in
  Alcotest.(check (option int)) "found" (Some id) (Intern.find_opt t "x")

let test_intern_growth () =
  let t = Intern.create () in
  for i = 0 to 499 do
    Alcotest.(check int) "dense ids" i (Intern.intern t (string_of_int i))
  done;
  for i = 0 to 499 do
    Alcotest.(check string) "inverse survives growth" (string_of_int i)
      (Intern.name t i)
  done

let test_intern_bad_id () =
  let t = Intern.create () in
  Alcotest.check_raises "unknown id" (Invalid_argument "Intern.name: unknown id")
    (fun () -> ignore (Intern.name t 3))

let test_codec_ints () =
  let w = Codec.Writer.create () in
  let values = [ 0; 1; -1; 63; -64; 127; 128; -12345; 1 lsl 40; -(1 lsl 40) ] in
  List.iter (Codec.Writer.varint w) values;
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  List.iter
    (fun v -> Alcotest.(check int) "varint roundtrip" v (Codec.Reader.varint r))
    values;
  Alcotest.(check bool) "consumed all" true (Codec.Reader.at_end r)

let test_codec_uvarint_compact () =
  let w = Codec.Writer.create () in
  Codec.Writer.uvarint w 5;
  Alcotest.(check int) "small value is one byte" 1 (Codec.Writer.length w)

let test_codec_int64 () =
  let w = Codec.Writer.create () in
  let values = [ 0L; 1L; -1L; Int64.max_int; Int64.min_int; 123456789L ] in
  List.iter (Codec.Writer.int64 w) values;
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  List.iter
    (fun v -> Alcotest.(check int64) "int64 roundtrip" v (Codec.Reader.int64 r))
    values

let test_codec_string_list () =
  let w = Codec.Writer.create () in
  Codec.Writer.list w (Codec.Writer.string w) [ "a"; ""; "hello world" ];
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  Alcotest.(check (list string))
    "list roundtrip"
    [ "a"; ""; "hello world" ]
    (Codec.Reader.list r Codec.Reader.string)

let test_codec_float () =
  let w = Codec.Writer.create () in
  List.iter (Codec.Writer.float w) [ 0.0; -1.5; 3.14159; infinity ];
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  List.iter
    (fun v ->
      Alcotest.(check (float 0.0)) "float roundtrip" v (Codec.Reader.float r))
    [ 0.0; -1.5; 3.14159; infinity ]

let test_codec_truncation_detected () =
  let w = Codec.Writer.create () in
  Codec.Writer.string w "hello";
  let bytes = Codec.Writer.contents w in
  let truncated = String.sub bytes 0 (String.length bytes - 2) in
  let r = Codec.Reader.of_string truncated in
  Alcotest.(check bool) "raises Corrupt" true
    (try
       ignore (Codec.Reader.string r);
       false
     with Codec.Reader.Corrupt _ -> true)

let test_codec_bad_bool () =
  let r = Codec.Reader.of_string "\x07" in
  Alcotest.(check bool) "raises Corrupt" true
    (try
       ignore (Codec.Reader.bool r);
       false
     with Codec.Reader.Corrupt _ -> true)

let qcheck_varint_roundtrip =
  QCheck.Test.make ~name:"codec varint roundtrips any int" ~count:500
    QCheck.int (fun v ->
      let w = Codec.Writer.create () in
      Codec.Writer.varint w v;
      let r = Codec.Reader.of_string (Codec.Writer.contents w) in
      Codec.Reader.varint r = v)

let qcheck_string_roundtrip =
  QCheck.Test.make ~name:"codec string roundtrips any string" ~count:200
    QCheck.string (fun s ->
      let w = Codec.Writer.create () in
      Codec.Writer.string w s;
      let r = Codec.Reader.of_string (Codec.Writer.contents w) in
      Codec.Reader.string r = s)

let test_stats_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "empty mean" 0.0 (Stats.mean [||])

let test_stats_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |])

let test_stats_percentile () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Stats.percentile xs 100.0)

let test_stats_min_max () =
  let mn, mx = Stats.min_max [| 3.0; -1.0; 7.0 |] in
  Alcotest.(check (float 1e-9)) "min" (-1.0) mn;
  Alcotest.(check (float 1e-9)) "max" 7.0 mx

let test_stats_ratio () =
  Alcotest.(check (float 1e-9)) "ratio" 2.0 (Stats.ratio 4.0 2.0);
  Alcotest.(check (float 1e-9)) "zero denominator" 0.0 (Stats.ratio 4.0 0.0)

(* Elements on both sides of the 63-bit word boundaries, including
   the top bit of a word (the sign bit of an OCaml int). *)
let test_bitset_word_boundaries () =
  let elems = [ 0; 1; 61; 62; 63; 64; 125; 126; 127; 199 ] in
  let s = Bitset.create 200 in
  List.iter (Bitset.add s) elems;
  Alcotest.(check (list int)) "elements ascending" elems (Bitset.elements s);
  Alcotest.(check bool) "mem past capacity" false (Bitset.mem s 5000);
  Alcotest.(check bool) "mem negative" false (Bitset.mem s (-1));
  Bitset.remove s 62;
  Bitset.remove s 63;
  Alcotest.(check (list int)) "after remove" [ 0; 1; 61; 64; 125; 126; 127; 199 ]
    (Bitset.elements s);
  let into = Bitset.create 200 in
  Bitset.add into 3;
  let minus = Bitset.create 200 in
  List.iter (Bitset.add minus) [ 64; 126 ];
  Alcotest.(check bool) "union_diff grows" true (Bitset.union_diff_into ~into s ~minus);
  Alcotest.(check (list int)) "union minus" [ 0; 1; 3; 61; 125; 127; 199 ]
    (Bitset.elements into);
  Alcotest.(check bool) "second union_diff no-op" false
    (Bitset.union_diff_into ~into s ~minus);
  Alcotest.(check bool) "union_into no-op" false (Bitset.union_into ~into (Bitset.copy into))

(* Liveness over 0 -> 1 -> 2 -> 1 (loop), 1 -> 3: 0 defines v0 and
   v1, the loop body 2 reads v0 and redefines v1, the exit 3 reads
   v1.  Both stay live around the loop. *)
let test_dataflow_backward_loop () =
  let set l =
    let s = Bitset.create 2 in
    List.iter (Bitset.add s) l;
    s
  in
  let succs = [| [| 1 |]; [| 2; 3 |]; [| 1 |]; [||] |] in
  let gen = [| set []; set []; set [ 0 ]; set [ 1 ] |] in
  let kill = [| set [ 0; 1 ]; set []; set [ 1 ]; set [] |] in
  let live_in, live_out = Dataflow.backward ~nbits:2 ~succs ~gen ~kill in
  let show a = Array.to_list (Array.map Bitset.elements a) in
  Alcotest.(check (list (list int))) "live-in" [ []; [ 0; 1 ]; [ 0 ]; [ 1 ] ] (show live_in);
  Alcotest.(check (list (list int))) "live-out" [ [ 0; 1 ]; [ 0; 1 ]; [ 0; 1 ]; [] ]
    (show live_out)

let suite =
  [
    ("bitset word boundaries", `Quick, test_bitset_word_boundaries);
    ("dataflow backward loop", `Quick, test_dataflow_backward_loop);
    ("prng deterministic", `Quick, test_prng_deterministic);
    ("prng seeds differ", `Quick, test_prng_seeds_differ);
    ("prng split independent", `Quick, test_prng_split_independent);
    ("prng copy replays", `Quick, test_prng_copy);
    ("prng int bounds", `Quick, test_prng_int_bounds);
    ("prng int_in bounds", `Quick, test_prng_int_in_bounds);
    ("prng float bounds", `Quick, test_prng_float_bounds);
    ("prng chance extremes", `Quick, test_prng_chance_extremes);
    ("prng choose_weighted zero weights", `Quick, test_prng_choose_weighted);
    ("prng shuffle is permutation", `Quick, test_prng_shuffle_permutation);
    ("prng zipf is skewed", `Quick, test_prng_zipf_skew);
    ("intern roundtrip", `Quick, test_intern_roundtrip);
    ("intern find_opt", `Quick, test_intern_find_opt);
    ("intern growth", `Quick, test_intern_growth);
    ("intern bad id", `Quick, test_intern_bad_id);
    ("codec varint values", `Quick, test_codec_ints);
    ("codec small uvarint compact", `Quick, test_codec_uvarint_compact);
    ("codec int64", `Quick, test_codec_int64);
    ("codec string list", `Quick, test_codec_string_list);
    ("codec float", `Quick, test_codec_float);
    ("codec truncation detected", `Quick, test_codec_truncation_detected);
    ("codec bad bool", `Quick, test_codec_bad_bool);
    QCheck_alcotest.to_alcotest qcheck_varint_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_string_roundtrip;
    ("stats mean", `Quick, test_stats_mean);
    ("stats geomean", `Quick, test_stats_geomean);
    ("stats percentile", `Quick, test_stats_percentile);
    ("stats min_max", `Quick, test_stats_min_max);
    ("stats ratio", `Quick, test_stats_ratio);
  ]
