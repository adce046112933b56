module Codec = Cmo_support.Codec
module Intern = Cmo_support.Intern
module W = Codec.Writer
module R = Codec.Reader

(* Tags are stable; bump [version] on any format change. *)
let version = 1

let binop_tag = function
  | Instr.Add -> 0 | Instr.Sub -> 1 | Instr.Mul -> 2 | Instr.Div -> 3
  | Instr.Rem -> 4 | Instr.And -> 5 | Instr.Or -> 6 | Instr.Xor -> 7
  | Instr.Shl -> 8 | Instr.Shr -> 9 | Instr.Eq -> 10 | Instr.Ne -> 11
  | Instr.Lt -> 12 | Instr.Le -> 13 | Instr.Gt -> 14 | Instr.Ge -> 15

(* Indexed by tag: the inverse of [binop_tag]. *)
let binop_table =
  [| Instr.Add; Instr.Sub; Instr.Mul; Instr.Div; Instr.Rem; Instr.And; Instr.Or;
     Instr.Xor; Instr.Shl; Instr.Shr; Instr.Eq; Instr.Ne; Instr.Lt; Instr.Le;
     Instr.Gt; Instr.Ge |]

let binop_of_tag t =
  if t >= 0 && t < Array.length binop_table then Array.unsafe_get binop_table t
  else R.corrupt (Printf.sprintf "bad binop tag %d" t)

let write_operand w = function
  | Instr.Reg r ->
    W.byte w 0;
    W.uvarint w r
  | Instr.Imm i ->
    W.byte w 1;
    (* Common immediates are tiny; zig-zag keeps them one byte. *)
    if Int64.of_int (Int64.to_int i) = i then begin
      W.byte w 0;
      W.varint w (Int64.to_int i)
    end
    else begin
      W.byte w 1;
      W.int64 w i
    end

let read_operand r =
  match R.byte r with
  | 0 -> Instr.Reg (R.uvarint r)
  | 1 -> (
    match R.byte r with
    | 0 -> Instr.Imm (Int64.of_int (R.varint r))
    | 1 -> Instr.Imm (R.int64 r)
    | t -> R.corrupt (Printf.sprintf "bad imm tag %d" t))
  | t -> R.corrupt (Printf.sprintf "bad operand tag %d" t)

(* Lists are a length prefix followed by the elements, as
   [Codec.Writer.list] writes them; the walks below do the same
   without a closure per element. *)
let rec write_operands w = function
  | [] -> ()
  | a :: rest ->
    write_operand w a;
    write_operands w rest

let rec read_operands r n =
  if n = 0 then []
  else
    let a = read_operand r in
    a :: read_operands r (n - 1)

let write_addr ~names w { Instr.base; index } =
  W.uvarint w (Intern.intern names base);
  write_operand w index

let read_addr ~names r =
  let base = Intern.name names (R.uvarint r) in
  let index = read_operand r in
  { Instr.base; index }

let write_instr ~names w = function
  | Instr.Move (d, a) ->
    W.byte w 0;
    W.uvarint w d;
    write_operand w a
  | Instr.Unop (op, d, a) ->
    W.byte w 1;
    W.byte w (match op with Instr.Neg -> 0 | Instr.Not -> 1);
    W.uvarint w d;
    write_operand w a
  | Instr.Binop (op, d, a, b) ->
    W.byte w 2;
    W.byte w (binop_tag op);
    W.uvarint w d;
    write_operand w a;
    write_operand w b
  | Instr.Load (d, addr) ->
    W.byte w 3;
    W.uvarint w d;
    write_addr ~names w addr
  | Instr.Store (addr, v) ->
    W.byte w 4;
    write_addr ~names w addr;
    write_operand w v
  | Instr.Call { dst; callee; args; site; call_count } ->
    W.byte w 5;
    (match dst with
    | None -> W.byte w 0
    | Some d ->
      W.byte w 1;
      W.uvarint w d);
    W.uvarint w (Intern.intern names callee);
    W.uvarint w (List.length args);
    write_operands w args;
    W.uvarint w site;
    W.float w call_count
  | Instr.Probe p ->
    W.byte w 6;
    W.uvarint w p

let read_instr ~names r =
  match R.byte r with
  | 0 ->
    let d = R.uvarint r in
    Instr.Move (d, read_operand r)
  | 1 ->
    let op = match R.byte r with
      | 0 -> Instr.Neg
      | 1 -> Instr.Not
      | t -> R.corrupt (Printf.sprintf "bad unop tag %d" t)
    in
    let d = R.uvarint r in
    Instr.Unop (op, d, read_operand r)
  | 2 ->
    let op = binop_of_tag (R.byte r) in
    let d = R.uvarint r in
    let a = read_operand r in
    let b = read_operand r in
    Instr.Binop (op, d, a, b)
  | 3 ->
    let d = R.uvarint r in
    Instr.Load (d, read_addr ~names r)
  | 4 ->
    let addr = read_addr ~names r in
    Instr.Store (addr, read_operand r)
  | 5 ->
    let dst = match R.byte r with
      | 0 -> None
      | 1 -> Some (R.uvarint r)
      | t -> R.corrupt (Printf.sprintf "bad call dst tag %d" t)
    in
    let callee = Intern.name names (R.uvarint r) in
    let args = read_operands r (R.seq_length r) in
    let site = R.uvarint r in
    let call_count = R.float r in
    Instr.Call { dst; callee; args; site; call_count }
  | 6 -> Instr.Probe (R.uvarint r)
  | t -> R.corrupt (Printf.sprintf "bad instr tag %d" t)

let rec write_instrs ~names w = function
  | [] -> ()
  | i :: rest ->
    write_instr ~names w i;
    write_instrs ~names w rest

let rec read_instrs ~names r n =
  if n = 0 then []
  else
    let i = read_instr ~names r in
    i :: read_instrs ~names r (n - 1)

let write_term w = function
  | Instr.Ret None -> W.byte w 0
  | Instr.Ret (Some a) ->
    W.byte w 1;
    write_operand w a
  | Instr.Jmp l ->
    W.byte w 2;
    W.uvarint w l
  | Instr.Br { cond; ifso; ifnot } ->
    W.byte w 3;
    write_operand w cond;
    W.uvarint w ifso;
    W.uvarint w ifnot

let read_term r =
  match R.byte r with
  | 0 -> Instr.Ret None
  | 1 -> Instr.Ret (Some (read_operand r))
  | 2 -> Instr.Jmp (R.uvarint r)
  | 3 ->
    let cond = read_operand r in
    let ifso = R.uvarint r in
    let ifnot = R.uvarint r in
    Instr.Br { cond; ifso; ifnot }
  | t -> R.corrupt (Printf.sprintf "bad terminator tag %d" t)

let rec write_blocks ~names w = function
  | [] -> ()
  | (b : Func.block) :: rest ->
    W.uvarint w b.Func.label;
    W.float w b.Func.freq;
    W.uvarint w (List.length b.Func.instrs);
    write_instrs ~names w b.Func.instrs;
    write_term w b.Func.term;
    write_blocks ~names w rest

let rec read_blocks ~names r n : Func.block list =
  if n = 0 then []
  else
    let label = R.uvarint r in
    let freq = R.float r in
    let instrs = read_instrs ~names r (R.seq_length r) in
    let term = read_term r in
    let b = { Func.label; instrs; term; freq } in
    b :: read_blocks ~names r (n - 1)

let write_func ~names w (f : Func.t) =
  W.uvarint w (Intern.intern names f.Func.name);
  W.uvarint w f.Func.arity;
  W.byte w (match f.Func.linkage with Func.Exported -> 0 | Func.Local -> 1);
  W.uvarint w f.Func.entry;
  W.uvarint w f.Func.next_reg;
  W.uvarint w f.Func.next_label;
  W.uvarint w f.Func.next_site;
  W.uvarint w f.Func.src_lines;
  W.uvarint w (List.length f.Func.blocks);
  write_blocks ~names w f.Func.blocks

let read_func ~names r : Func.t =
  let name = Intern.name names (R.uvarint r) in
  let arity = R.uvarint r in
  let linkage = match R.byte r with
    | 0 -> Func.Exported
    | 1 -> Func.Local
    | t -> R.corrupt (Printf.sprintf "bad linkage tag %d" t)
  in
  let entry = R.uvarint r in
  let next_reg = R.uvarint r in
  let next_label = R.uvarint r in
  let next_site = R.uvarint r in
  let src_lines = R.uvarint r in
  let blocks = read_blocks ~names r (R.seq_length r) in
  {
    Func.name;
    arity;
    linkage;
    entry;
    blocks;
    next_reg;
    next_label;
    next_site;
    src_lines;
  }

let encode_func ~names f =
  let w = W.create () in
  write_func ~names w f;
  W.contents w

let decode_func ~names bytes = read_func ~names (R.of_string bytes)

let write_global w (g : Ilmod.global) =
  W.string w g.Ilmod.gname;
  W.uvarint w g.Ilmod.size;
  W.bool w g.Ilmod.exported;
  W.array w (W.int64 w) g.Ilmod.init

let read_global r : Ilmod.global =
  let gname = R.string r in
  let size = R.uvarint r in
  let exported = R.bool r in
  let init = R.array r R.int64 in
  { Ilmod.gname; size; exported; init }

let encode_module (m : Ilmod.t) =
  let names = Intern.create () in
  (* Encode functions first so the name table is complete, then write
     the table ahead of the function bodies. *)
  let bodies = List.map (encode_func ~names) m.Ilmod.funcs in
  let w = W.create () in
  W.byte w version;
  W.string w m.Ilmod.mname;
  let name_list = ref [] in
  Intern.iter names (fun _ s -> name_list := s :: !name_list);
  W.list w (W.string w) (List.rev !name_list);
  W.list w (write_global w) m.Ilmod.globals;
  W.list w (W.string w) bodies;
  W.contents w

let decode_module bytes =
  let r = R.of_string bytes in
  let v = R.byte r in
  if v <> version then
    R.corrupt (Printf.sprintf "IL codec version mismatch: %d vs %d" v version);
  let mname = R.string r in
  let names = Intern.create () in
  List.iter (fun s -> ignore (Intern.intern names s)) (R.list r R.string);
  let globals = R.list r read_global in
  let funcs = List.map (decode_func ~names) (R.list r R.string) in
  { Ilmod.mname; globals; funcs }

let roundtrip_func f =
  let names = Intern.create () in
  decode_func ~names (encode_func ~names f)
