module Writer = struct
  (* A growable byte buffer: [buf] holds [len] bytes written so far. *)
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.create 256; len = 0 }

  let grow t need =
    let cap = ref (2 * Bytes.length t.buf) in
    while !cap < t.len + need do
      cap := 2 * !cap
    done;
    let buf = Bytes.create !cap in
    Bytes.blit t.buf 0 buf 0 t.len;
    t.buf <- buf

  let[@inline] reserve t need =
    if t.len + need > Bytes.length t.buf then grow t need

  let byte t b =
    reserve t 1;
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr (b land 0xff));
    t.len <- t.len + 1

  (* Writes the int's bit pattern as an unsigned base-128 quantity;
     works for any int including those whose top bit is set (the
     zig-zag image of min_int).  A 63-bit pattern takes at most nine
     bytes. *)
  let raw_base128 t v =
    reserve t 10;
    let buf = t.buf in
    let v = ref v and pos = ref t.len in
    while !v land lnot 0x7f <> 0 do
      Bytes.unsafe_set buf !pos (Char.unsafe_chr (0x80 lor (!v land 0x7f)));
      incr pos;
      v := !v lsr 7
    done;
    Bytes.unsafe_set buf !pos (Char.unsafe_chr !v);
    t.len <- !pos + 1

  let uvarint t v =
    assert (v >= 0);
    raw_base128 t v

  let varint t v =
    (* zig-zag: 0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3, ... *)
    let z = (v lsl 1) lxor (v asr (Sys.int_size - 1)) in
    raw_base128 t z

  let int64 t v =
    reserve t 8;
    Bytes.set_int64_le t.buf t.len v;
    t.len <- t.len + 8

  let string t s =
    let n = String.length s in
    uvarint t n;
    reserve t n;
    Bytes.unsafe_blit_string s 0 t.buf t.len n;
    t.len <- t.len + n

  let bool t b = byte t (if b then 1 else 0)

  let float t f = int64 t (Int64.bits_of_float f)

  let list t write_elem items =
    uvarint t (List.length items);
    List.iter write_elem items

  let array t write_elem items =
    uvarint t (Array.length items);
    Array.iter write_elem items

  let option t write_elem = function
    | None -> bool t false
    | Some v ->
      bool t true;
      write_elem v

  let length t = t.len

  let contents t = Bytes.sub_string t.buf 0 t.len
end

module Reader = struct
  type t = { data : string; mutable pos : int }

  exception Corrupt of string

  let corrupt msg = raise (Corrupt msg)

  let of_string data = { data; pos = 0 }

  let byte t =
    if t.pos >= String.length t.data then corrupt "unexpected end of input";
    let b = Char.code (String.unsafe_get t.data t.pos) in
    t.pos <- t.pos + 1;
    b

  let uvarint_slow t =
    let rec go shift acc =
      if shift > Sys.int_size then corrupt "varint too long";
      let b = byte t in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  (* Most varints (registers, labels, tags, short lengths) are one
     byte. *)
  let uvarint t =
    let pos = t.pos in
    if pos < String.length t.data then begin
      let b = Char.code (String.unsafe_get t.data pos) in
      if b < 0x80 then begin
        t.pos <- pos + 1;
        b
      end
      else uvarint_slow t
    end
    else uvarint_slow t

  let varint t =
    let z = uvarint t in
    (z lsr 1) lxor (- (z land 1))

  let int64 t =
    if t.pos + 8 > String.length t.data then corrupt "unexpected end of input";
    let v = String.get_int64_le t.data t.pos in
    t.pos <- t.pos + 8;
    v

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

  (* Elements are read in order; long lists are built reversed so
     the stack stays shallow. *)
  let list t read_elem =
    let len = seq_length t in
    let rec direct n =
      if n = 0 then []
      else
        let x = read_elem t in
        x :: direct (n - 1)
    in
    let rec reversed n acc =
      if n = 0 then List.rev acc else reversed (n - 1) (read_elem t :: acc)
    in
    if len <= 1000 then direct len else reversed len []

  let array t read_elem =
    let len = seq_length t in
    Array.init len (fun _ -> read_elem t)

  let option t read_elem = if bool t then Some (read_elem t) else None

  let at_end t = t.pos = String.length t.data
end
