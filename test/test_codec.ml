(* The direct codec against its reference oracle ([Ref_codec], the
   Buffer-backed writer, byte-at-a-time reader and closure-per-element
   routine codec it replaced).  Random primitive streams and random IL
   routines are written by both and must give the same bytes; both
   readers must then decode the bytes to equal values, and every
   truncation and every single-byte garble of the bytes must give the
   same outcome in both: the same value, the same [Corrupt] message,
   or the same other exception. *)

module Codec = Cmo_support.Codec
module Intern = Cmo_support.Intern
module Instr = Cmo_il.Instr
module Func = Cmo_il.Func
module Ilcodec = Cmo_il.Ilcodec
module Ref = Ref_codec

(* What a decode did.  Values are kept as their reference encoding
   (see [canonical_*]), which tells floats apart by bits. *)
type outcome = Value of string | Corrupt of string | Raised of string

let outcome_to_string = function
  | Value v -> Printf.sprintf "value %S" v
  | Corrupt m -> "Corrupt " ^ m
  | Raised e -> "exception " ^ e

let run_new f =
  try Value (f ()) with
  | Codec.Reader.Corrupt m -> Corrupt m
  | e -> Raised (Printexc.to_string e)

let run_ref f =
  try Value (f ()) with
  | Ref.Codec.Reader.Corrupt m -> Corrupt m
  | e -> Raised (Printexc.to_string e)

(* [k how data] on every truncation of [bytes], then on every copy
   with one position changed to another byte (xor with a non-zero
   mask drawn from [salt]). *)
let iter_damaged bytes ~salt k =
  let n = String.length bytes in
  for len = 0 to n - 1 do
    k (Printf.sprintf "truncated to %d" len) (String.sub bytes 0 len)
  done;
  for i = 0 to n - 1 do
    let mask = 1 + (((salt + (i * 131)) land 0x7fff) mod 255) in
    let b = Bytes.of_string bytes in
    Bytes.set b i (Char.chr (Char.code bytes.[i] lxor mask));
    k (Printf.sprintf "byte %d xor 0x%02x" i mask) (Bytes.to_string b)
  done

(* [decode_new] and [decode_ref] must agree on the bytes and on every
   damaged copy of them. *)
let agree ~what ~salt bytes decode_new decode_ref =
  let check how data =
    let a = run_new (fun () -> decode_new data) and b = run_ref (fun () -> decode_ref data) in
    if a <> b then
      QCheck.Test.fail_reportf "%s, %s: new %s, reference %s" what how (outcome_to_string a)
        (outcome_to_string b)
  in
  check "intact" bytes;
  iter_damaged bytes ~salt check

(* ---------- primitive streams ---------- *)

type prim =
  | Byte of int
  | Varint of int
  | Uvarint of int
  | Int64 of int64
  | Float of float
  | Str of string
  | Bool of bool
  | Ints of int list  (* a list of varints *)
  | Floats of float array
  | Strs of string list

module type CODEC = sig
  module Writer : sig
    type t

    val create : unit -> t
    val byte : t -> int -> unit
    val varint : t -> int -> unit
    val uvarint : t -> int -> unit
    val int64 : t -> int64 -> unit
    val string : t -> string -> unit
    val bool : t -> bool -> unit
    val float : t -> float -> unit
    val list : t -> ('a -> unit) -> 'a list -> unit
    val array : t -> ('a -> unit) -> 'a array -> unit
    val length : t -> int
    val contents : t -> string
  end

  module Reader : sig
    type t

    val of_string : string -> t
    val byte : t -> int
    val varint : t -> int
    val uvarint : t -> int
    val int64 : t -> int64
    val string : t -> string
    val bool : t -> bool
    val float : t -> float
    val list : t -> (t -> 'a) -> 'a list
    val array : t -> (t -> 'a) -> 'a array
    val at_end : t -> bool
  end
end

module Prims (C : CODEC) = struct
  module W = C.Writer
  module R = C.Reader

  let write w = function
    | Byte b -> W.byte w b
    | Varint v -> W.varint w v
    | Uvarint v -> W.uvarint w v
    | Int64 v -> W.int64 w v
    | Float f -> W.float w f
    | Str s -> W.string w s
    | Bool b -> W.bool w b
    | Ints l -> W.list w (W.varint w) l
    | Floats a -> W.array w (W.float w) a
    | Strs l -> W.list w (W.string w) l

  (* Read a value of the same shape as [p]. *)
  let read r = function
    | Byte _ -> Byte (R.byte r)
    | Varint _ -> Varint (R.varint r)
    | Uvarint _ -> Uvarint (R.uvarint r)
    | Int64 _ -> Int64 (R.int64 r)
    | Float _ -> Float (R.float r)
    | Str _ -> Str (R.string r)
    | Bool _ -> Bool (R.bool r)
    | Ints _ -> Ints (R.list r R.varint)
    | Floats _ -> Floats (R.array r R.float)
    | Strs _ -> Strs (R.list r R.string)

  let encode prims =
    let w = W.create () in
    List.iter (write w) prims;
    if W.length w <> String.length (W.contents w) then failwith "Writer.length disagrees";
    W.contents w

  let decode shape data =
    let r = R.of_string data in
    let values = List.map (read r) shape in
    (values, R.at_end r)
end

module New_prims = Prims (Codec)
module Ref_prims = Prims (Ref.Codec)

(* The reference bytes of a decoded stream: equal exactly when the
   values are, float bits included. *)
let canonical_prims (values, at_end) =
  Printf.sprintf "%s|at_end=%b" (Ref_prims.encode values) at_end

let gen_int =
  QCheck.Gen.(
    frequency
      [
        (3, small_signed_int);
        (2, int);
        ( 1,
          oneofl
            [ min_int; max_int; 0; -1; 63; 64; -64; -65; 127; 128; 16383; 16384;
              1 lsl 62; -(1 lsl 62); (1 lsl 56) - 1; 1 lsl 56 ] );
      ])

let gen_nat = QCheck.Gen.map (fun i -> i land max_int) gen_int

let gen_int64 =
  QCheck.Gen.(
    frequency
      [
        (2, map Int64.of_int small_signed_int);
        (2, ui64);
        (1, map Int64.of_int gen_int);
        ( 1,
          oneofl
            [ Int64.min_int; Int64.max_int; 0L; -1L; Int64.of_int min_int;
              Int64.of_int max_int; Int64.succ (Int64.of_int max_int);
              Int64.pred (Int64.of_int min_int) ] );
      ])

let gen_float =
  QCheck.Gen.(
    frequency
      [
        (3, float);
        (1, map float_of_int small_signed_int);
        ( 1,
          oneofl
            [ nan; -0.; 0.; infinity; neg_infinity; max_float; min_float;
              Int64.float_of_bits 1L; Int64.float_of_bits 0x7ff8000000000001L;
              Int64.float_of_bits 0xfff4000000000000L ] );
      ])

let gen_string =
  QCheck.Gen.(
    frequency
      [
        (5, string_size ~gen:char (int_bound 12));
        (1, string_size ~gen:char (int_range 120 300));
      ])

let gen_prim =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun b -> Byte b) gen_int);
        (3, map (fun v -> Varint v) gen_int);
        (3, map (fun v -> Uvarint v) gen_nat);
        (2, map (fun v -> Int64 v) gen_int64);
        (2, map (fun f -> Float f) gen_float);
        (2, map (fun s -> Str s) gen_string);
        (1, map (fun b -> Bool b) bool);
        (1, map (fun l -> Ints l) (list_size (int_bound 8) gen_int));
        (1, map (fun a -> Floats a) (array_size (int_bound 5) gen_float));
        (1, map (fun l -> Strs l) (list_size (int_bound 4) gen_string));
      ])

let print_prim = function
  | Byte b -> Printf.sprintf "byte %d" b
  | Varint v -> Printf.sprintf "varint %d" v
  | Uvarint v -> Printf.sprintf "uvarint %d" v
  | Int64 v -> Printf.sprintf "int64 %Ld" v
  | Float f -> Printf.sprintf "float %h" f
  | Str s -> Printf.sprintf "string %S" s
  | Bool b -> Printf.sprintf "bool %b" b
  | Ints l -> "varints [" ^ String.concat "; " (List.map string_of_int l) ^ "]"
  | Floats a ->
    "floats [|" ^ String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") a)) ^ "|]"
  | Strs l -> "strings [" ^ String.concat "; " (List.map (Printf.sprintf "%S") l) ^ "]"

let arbitrary_stream =
  QCheck.make
    ~print:QCheck.Print.(pair (fun l -> String.concat "\n" (List.map print_prim l)) int)
    QCheck.Gen.(pair (list_size (int_range 1 12) gen_prim) nat)

(* A primitive read back as what was written: a byte keeps its low
   eight bits. *)
let written = function Byte b -> Byte (b land 0xff) | p -> p

let test_streams =
  QCheck.Test.make ~name:"codec: primitive streams equal the reference" ~count:300
    ~long_factor:10 arbitrary_stream (fun (prims, salt) ->
      let bytes = New_prims.encode prims in
      let ref_bytes = Ref_prims.encode prims in
      if bytes <> ref_bytes then
        QCheck.Test.fail_reportf "bytes differ:@.new %S@.reference %S" bytes ref_bytes;
      if canonical_prims (New_prims.decode prims bytes)
         <> canonical_prims (List.map written prims, true)
      then QCheck.Test.fail_report "decoding does not give back what was written";
      agree ~what:"stream" ~salt bytes
        (fun data -> canonical_prims (New_prims.decode prims data))
        (fun data -> canonical_prims (Ref_prims.decode prims data));
      true)

(* ---------- IL routines ---------- *)

let gen_name =
  QCheck.Gen.oneofl [ "main"; "f"; "g"; "helper"; "a_rather_longer_routine_name"; ""; "x.y" ]

let gen_reg = QCheck.Gen.(frequency [ (6, int_bound 24); (1, gen_nat) ])

let gen_operand =
  QCheck.Gen.(
    frequency
      [ (3, map (fun r -> Instr.Reg r) gen_reg); (3, map (fun i -> Instr.Imm i) gen_int64) ])

let gen_addr =
  QCheck.Gen.(map2 (fun base index -> { Instr.base; index }) gen_name gen_operand)

let gen_instr =
  let open QCheck.Gen in
  frequency
    [
      (3, map2 (fun d a -> Instr.Move (d, a)) gen_reg gen_operand);
      ( 1,
        map3 (fun op d a -> Instr.Unop (op, d, a)) (oneofl [ Instr.Neg; Instr.Not ]) gen_reg
          gen_operand );
      ( 4,
        map3
          (fun (op, d) a b -> Instr.Binop (op, d, a, b))
          (pair
             (oneofl
                Instr.
                  [ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Eq; Ne; Lt; Le; Gt; Ge ])
             gen_reg)
          gen_operand gen_operand );
      (1, map2 (fun d a -> Instr.Load (d, a)) gen_reg gen_addr);
      (1, map2 (fun a v -> Instr.Store (a, v)) gen_addr gen_operand);
      ( 2,
        map3
          (fun (dst, callee) args (site, call_count) ->
            Instr.Call { Instr.dst; callee; args; site; call_count })
          (pair (option gen_reg) gen_name)
          (list_size (int_bound 5) gen_operand)
          (pair gen_nat gen_float) );
      (1, map (fun p -> Instr.Probe p) gen_nat);
    ]

let gen_term =
  QCheck.Gen.(
    frequency
      [
        (1, return (Instr.Ret None));
        (2, map (fun a -> Instr.Ret (Some a)) gen_operand);
        (2, map (fun l -> Instr.Jmp l) gen_nat);
        ( 3,
          map3 (fun cond ifso ifnot -> Instr.Br { cond; ifso; ifnot }) gen_operand gen_nat
            gen_nat );
      ])

let gen_block =
  QCheck.Gen.(
    map2
      (fun (label, freq) (instrs, term) -> { Func.label; instrs; term; freq })
      (pair gen_nat gen_float)
      (pair (list_size (int_bound 10) gen_instr) gen_term))

let gen_func =
  let open QCheck.Gen in
  let* name = gen_name in
  let* arity = gen_nat and* entry = gen_nat and* src_lines = gen_nat in
  let* linkage = oneofl [ Func.Exported; Func.Local ] in
  let* next_reg = gen_nat and* next_label = gen_nat and* next_site = gen_nat in
  let* blocks = list_size (int_bound 6) gen_block in
  return
    { Func.name; arity; linkage; entry; blocks; next_reg; next_label; next_site; src_lines }

let arbitrary_func =
  QCheck.make
    ~print:QCheck.Print.(pair (Format.asprintf "%a" Func.pp) int)
    QCheck.Gen.(pair gen_func nat)

let names_of table =
  let acc = ref [] in
  Intern.iter table (fun _ s -> acc := s :: !acc);
  List.rev !acc

(* A routine as the reference writes it through a fresh name table,
   plus that table: equal exactly when the routines are. *)
let canonical_func f =
  let names = Intern.create () in
  let bytes = Ref.Ilcodec.encode_func ~names f in
  String.concat "\000" (bytes :: names_of names)

let test_routines =
  QCheck.Test.make ~name:"codec: IL routines equal the reference" ~count:300 ~long_factor:10
    arbitrary_func (fun (f, salt) ->
      let names = Intern.create () and ref_names = Intern.create () in
      let bytes = Ilcodec.encode_func ~names f in
      let ref_bytes = Ref.Ilcodec.encode_func ~names:ref_names f in
      if bytes <> ref_bytes then
        QCheck.Test.fail_reportf "bytes differ:@.new %S@.reference %S" bytes ref_bytes;
      if names_of names <> names_of ref_names then
        QCheck.Test.fail_report "name tables differ";
      if canonical_func (Ilcodec.decode_func ~names bytes) <> canonical_func f then
        QCheck.Test.fail_report "decoding does not give back the routine";
      agree ~what:"routine" ~salt bytes
        (fun data -> canonical_func (Ilcodec.decode_func ~names data))
        (fun data -> canonical_func (Ref.Ilcodec.decode_func ~names data));
      true)

(* A string length whose varint sets the sign bit (-1), or one so large
   that [pos + len] wraps (max_int), is corruption in both readers, not
   an [Invalid_argument] out of [String.sub]. *)
let test_string_length_overflow () =
  List.iter
    (fun (what, data) ->
      let got = run_new (fun () -> Codec.Reader.string (Codec.Reader.of_string data)) in
      let want = Corrupt "string overruns input" in
      Alcotest.(check string) what (outcome_to_string want) (outcome_to_string got);
      let got_ref =
        try Value (Ref.Codec.Reader.string (Ref.Codec.Reader.of_string data)) with
        | Ref.Codec.Reader.Corrupt m -> Corrupt m
        | e -> Raised (Printexc.to_string e)
      in
      Alcotest.(check string) (what ^ " (reference)") (outcome_to_string want)
        (outcome_to_string got_ref))
    [ ("negative length", String.make 8 '\xff' ^ "\x7fabc");
      ("wrapping length", String.make 8 '\xff' ^ "\x3fabc") ]

let suite =
  [
    Helpers.to_alcotest test_streams;
    Helpers.to_alcotest test_routines;
    ("codec: string length overflow is corruption", `Quick, test_string_length_overflow);
  ]
