(* Reference oracles for the binary codec: the Buffer-backed
   [Cmo_support.Codec] and the closure-per-element [Ilcodec] routine
   encoder and decoder that the direct versions in [lib/support] and
   [lib/il] replaced, kept as they were so the property suite in
   [test_codec.ml] can hold the new code to their exact bytes, values
   and [Corrupt] cases.  Not used by the compiler. *)

module Codec = struct
  module Writer = struct
    type t = Buffer.t

    let create () = Buffer.create 256

    let byte t b = Buffer.add_char t (Char.chr (b land 0xff))

    (* Writes the int's bit pattern as an unsigned base-128 quantity;
       works for any int including those whose top bit is set (the
       zig-zag image of min_int). *)
    let raw_base128 t v =
      let rec go v =
        if v >= 0 && v < 0x80 then byte t v
        else begin
          byte t (0x80 lor (v land 0x7f));
          go (v lsr 7)
        end
      in
      go v

    let uvarint t v =
      assert (v >= 0);
      raw_base128 t v

    let varint t v =
      (* zig-zag: 0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3, ... *)
      let z = (v lsl 1) lxor (v asr (Sys.int_size - 1)) in
      raw_base128 t z

    let int64 t v =
      for i = 0 to 7 do
        byte t (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
      done

    let string t s =
      uvarint t (String.length s);
      Buffer.add_string t s

    let bool t b = byte t (if b then 1 else 0)

    let float t f = int64 t (Int64.bits_of_float f)

    let list t write_elem items =
      uvarint t (List.length items);
      List.iter write_elem items

    let array t write_elem items =
      uvarint t (Array.length items);
      Array.iter write_elem items

    let length t = Buffer.length t

    let contents t = Buffer.contents t
  end

  module Reader = struct
    type t = { data : string; mutable pos : int }

    exception Corrupt of string

    let corrupt msg = raise (Corrupt msg)

    let of_string data = { data; pos = 0 }

    let byte t =
      if t.pos >= String.length t.data then corrupt "unexpected end of input";
      let b = Char.code t.data.[t.pos] in
      t.pos <- t.pos + 1;
      b

    let uvarint t =
      let rec go shift acc =
        if shift > Sys.int_size then corrupt "varint too long";
        let b = byte t in
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b land 0x80 = 0 then acc else go (shift + 7) acc
      in
      go 0 0

    let varint t =
      let z = uvarint t in
      (z lsr 1) lxor (- (z land 1))

    let int64 t =
      let v = ref 0L in
      for i = 0 to 7 do
        v := Int64.logor !v (Int64.shift_left (Int64.of_int (byte t)) (8 * i))
      done;
      !v

    let string t =
      let len = uvarint t in
      if len < 0 || len > String.length t.data - t.pos then corrupt "string overruns input";
      let s = String.sub t.data t.pos len in
      t.pos <- t.pos + len;
      s

    let bool t =
      match byte t with
      | 0 -> false
      | 1 -> true
      | _ -> corrupt "invalid bool"

    let float t = Int64.float_of_bits (int64 t)

    (* Every element consumes at least one byte, so a length prefix
       larger than the remaining input is corruption — check before
       allocating, lest a garbage prefix demand a huge array. *)
    let seq_length t =
      let len = uvarint t in
      if len < 0 || len > String.length t.data - t.pos then
        corrupt "sequence length overruns input";
      len

    let list t read_elem =
      let len = seq_length t in
      List.init len (fun _ -> read_elem t)

    let array t read_elem =
      let len = seq_length t in
      Array.init len (fun _ -> read_elem t)

    let at_end t = t.pos = String.length t.data
  end
end

module Ilcodec = struct
  module Instr = Cmo_il.Instr
  module Func = Cmo_il.Func
  module Intern = Cmo_support.Intern
  module W = Codec.Writer
  module R = Codec.Reader

  let binop_tag = function
    | Instr.Add -> 0 | Instr.Sub -> 1 | Instr.Mul -> 2 | Instr.Div -> 3
    | Instr.Rem -> 4 | Instr.And -> 5 | Instr.Or -> 6 | Instr.Xor -> 7
    | Instr.Shl -> 8 | Instr.Shr -> 9 | Instr.Eq -> 10 | Instr.Ne -> 11
    | Instr.Lt -> 12 | Instr.Le -> 13 | Instr.Gt -> 14 | Instr.Ge -> 15

  let binop_of_tag = function
    | 0 -> Instr.Add | 1 -> Instr.Sub | 2 -> Instr.Mul | 3 -> Instr.Div
    | 4 -> Instr.Rem | 5 -> Instr.And | 6 -> Instr.Or | 7 -> Instr.Xor
    | 8 -> Instr.Shl | 9 -> Instr.Shr | 10 -> Instr.Eq | 11 -> Instr.Ne
    | 12 -> Instr.Lt | 13 -> Instr.Le | 14 -> Instr.Gt | 15 -> Instr.Ge
    | t -> R.corrupt (Printf.sprintf "bad binop tag %d" t)

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
      W.list w (write_operand w) args;
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
      let args = R.list r read_operand in
      let site = R.uvarint r in
      let call_count = R.float r in
      Instr.Call { dst; callee; args; site; call_count }
    | 6 -> Instr.Probe (R.uvarint r)
    | t -> R.corrupt (Printf.sprintf "bad instr tag %d" t)

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

  let write_block ~names w (b : Func.block) =
    W.uvarint w b.Func.label;
    W.float w b.Func.freq;
    W.list w (write_instr ~names w) b.Func.instrs;
    write_term w b.Func.term

  let read_block ~names r : Func.block =
    let label = R.uvarint r in
    let freq = R.float r in
    let instrs = R.list r (read_instr ~names) in
    let term = read_term r in
    { Func.label; instrs; term; freq }

  let write_func ~names w (f : Func.t) =
    W.uvarint w (Intern.intern names f.Func.name);
    W.uvarint w f.Func.arity;
    W.byte w (match f.Func.linkage with Func.Exported -> 0 | Func.Local -> 1);
    W.uvarint w f.Func.entry;
    W.uvarint w f.Func.next_reg;
    W.uvarint w f.Func.next_label;
    W.uvarint w f.Func.next_site;
    W.uvarint w f.Func.src_lines;
    W.list w (write_block ~names w) f.Func.blocks

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
    let blocks = R.list r (read_block ~names) in
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
end
