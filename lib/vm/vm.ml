module Mach = Cmo_llo.Mach
module Instr = Cmo_il.Instr
module Image = Cmo_link.Image

type outcome = {
  ret : int64;
  output : int64 list;
  cycles : int;
  instructions : int;
  icache_accesses : int;
  icache_misses : int;
  taken_branches : int;
  calls : int;
  dcache_accesses : int;
  dcache_misses : int;
  probes : (int * int64) list;
  func_cycles : (string * int) list;
}

exception Fault of string

let fault fmt = Format.kasprintf (fun s -> raise (Fault s)) fmt

(* Active calls allowed at once; the call that would make one more
   faults. *)
let max_call_depth = 100_000

(* ---------- the decoded form ----------

   [run] decodes the image once into flat tables indexed by pc, then
   interprets them with no allocation per instruction.

   Operands are slots of [vals], one [Bytes] of unboxed native-endian
   64-bit cells: slots 0-31 are the machine registers, slot 32 is a
   sink that absorbs writes to r0 (so slot 0 always reads zero), and
   the slots above hold the image's immediates, one per distinct
   value, so [Li] is a move and [Opi] a register-register operation.
   Memory is a second such [Bytes], one cell per data address. *)

external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] get vals slot = unsafe_get64 vals (slot lsl 3)

let num_regs = Mach.first_vreg

let sink = num_regs

(* One opcode per behaviour; binops are folded in. *)
type opcode =
  | Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge
  | Mv | Neg | Not | Ld | St | B | Bz | Bnz | Call | Ret | Print | Arg
  | Adjsp | Cnt | Halt
  | Unresolved_global  (** [Lga] left by the linker: faults. *)
  | Unresolved_call  (** [Call_sym] left by the linker: faults. *)
  | Bad_register  (** Names a register outside r0-r31: faults. *)

let opcode_of_binop = function
  | Instr.Add -> Add | Instr.Sub -> Sub | Instr.Mul -> Mul | Instr.Div -> Div
  | Instr.Rem -> Rem | Instr.And -> And | Instr.Or -> Or | Instr.Xor -> Xor
  | Instr.Shl -> Shl | Instr.Shr -> Shr | Instr.Eq -> Eq | Instr.Ne -> Ne
  | Instr.Lt -> Lt | Instr.Le -> Le | Instr.Gt -> Gt | Instr.Ge -> Ge

(* Fields of instruction [pc] at [args.(stride * pc + k)]. *)
let stride = 8

let f_a = 0  (* destination slot; St's value slot; Bz/Bnz's tested slot;
                B/Call target; Adjsp amount; Cnt counter slot; Lga/Call_sym
                symbol index; Bad_register's register *)
let f_b = 1  (* first source slot; Ld/St base slot; Bz/Bnz target *)
let f_c = 2  (* second source slot; Ld/St offset *)
let f_cost = 3  (* base cycles *)
let f_uses = 4  (* bitmask of the registers read, for the load-use stall *)
let f_iline = 5  (* i-cache line number: stands for the tag within a set *)
let f_iset = 6  (* i-cache set index *)
let f_func = 7  (* routine index for attribution, or -1 *)

(* Direct-mapped cache geometry, as lines and items per line; a
   power-of-two part also yields its shift or mask. *)
type geometry = {
  num_lines : int;
  per_line : int;
  line_shift : int;  (* log2 per_line, or -1 *)
  set_mask : int;  (* num_lines - 1, or -1 *)
}

let log2_exact n =
  if n land (n - 1) <> 0 then -1
  else
    let rec go k = if 1 lsl k = n then k else go (k + 1) in
    go 0

let geometry ~total_bytes ~line_bytes ~item_bytes =
  let num_lines = max 1 (total_bytes / line_bytes) in
  let per_line = max 1 (line_bytes / item_bytes) in
  let set_mask = if log2_exact num_lines >= 0 then num_lines - 1 else -1 in
  { num_lines; per_line; line_shift = log2_exact per_line; set_mask }

(* Line number and set of a non-negative address.  Two addresses with
   the same set share a tag exactly when they share a line number, so
   a set holds its line number in place of the tag. *)
let line_of g addr = if g.line_shift >= 0 then addr lsr g.line_shift else addr / g.per_line

let set_of g line = if g.set_mask >= 0 then line land g.set_mask else line mod g.num_lines

type decoded = {
  ops : opcode array;
  args : int array;  (* [stride] fields per instruction *)
  vals : Bytes.t;  (* registers, sink and immediates, initialised *)
  syms : string array;  (* names of unresolved references *)
  probe_ids : int array;  (* probe id of each counter slot *)
}

exception Bad_reg of int

let reg r = if r < 0 || r >= num_regs then raise (Bad_reg r) else r

let dst r = if reg r = Mach.reg_zero then sink else r

(* Allocates nothing per instruction beyond the first sight of an
   immediate, a probe id or a symbol. *)
let decode (cm : Costmodel.t) ~icache ~func_of_pc (code : Mach.instr array) =
  let n = Array.length code in
  let ops = Array.make n Halt in
  let args = Array.make (stride * n) 0 in
  let consts = Hashtbl.create 64 and const_list = ref [] in
  let const v =
    match Hashtbl.find consts v with
    | slot -> slot
    | exception Not_found ->
      let slot = sink + 1 + Hashtbl.length consts in
      Hashtbl.add consts v slot;
      const_list := (slot, v) :: !const_list;
      slot
  in
  let syms = ref [] and num_syms = ref 0 in
  let sym s =
    syms := s :: !syms;
    incr num_syms;
    !num_syms - 1
  in
  let probes = Hashtbl.create 64 and probe_list = ref [] in
  let probe p =
    match Hashtbl.find probes p with
    | slot -> slot
    | exception Not_found ->
      let slot = Hashtbl.length probes in
      Hashtbl.add probes p slot;
      probe_list := p :: !probe_list;
      slot
  in
  let alu = cm.Costmodel.alu_cycles and mem = cm.Costmodel.mem_cycles in
  let pc = ref 0 in
  let put op a b c cost =
    ops.(!pc) <- op;
    let f = stride * !pc in
    args.(f + f_a) <- a;
    args.(f + f_b) <- b;
    args.(f + f_c) <- c;
    args.(f + f_cost) <- cost
  in
  while !pc < n do
    let instr = code.(!pc) in
    (try
       match instr with
       | Mach.Li (d, v) -> put Mv (dst d) (const v) 0 alu
       | Mach.Mv (d, s) -> put Mv (dst d) (reg s) 0 alu
       | Mach.Op (op, d, x, y) ->
         put (opcode_of_binop op) (dst d) (reg x) (reg y) (Costmodel.op_cycles cm op)
       | Mach.Opi (op, d, x, v) ->
         put (opcode_of_binop op) (dst d) (reg x) (const v) (Costmodel.op_cycles cm op)
       | Mach.Un (Instr.Neg, d, s) -> put Neg (dst d) (reg s) 0 alu
       | Mach.Un (Instr.Not, d, s) -> put Not (dst d) (reg s) 0 alu
       | Mach.Ld (d, base, off) -> put Ld (dst d) (reg base) off mem
       | Mach.St (v, base, off) -> put St (reg v) (reg base) off mem
       | Mach.Lga (_, s) -> put Unresolved_global (sym s) 0 0 0
       | Mach.Call_sym s -> put Unresolved_call (sym s) 0 0 0
       | Mach.B t -> put B t 0 0 (alu + cm.Costmodel.taken_branch_penalty)
       | Mach.Bz (r, t) -> put Bz (reg r) t 0 alu
       | Mach.Bnz (r, t) -> put Bnz (reg r) t 0 alu
       | Mach.Call_abs t -> put Call t 0 0 cm.Costmodel.call_cycles
       | Mach.Ret -> put Ret 0 0 0 cm.Costmodel.ret_cycles
       | Mach.Sys Mach.Sys_print -> put Print 0 0 0 cm.Costmodel.sys_cycles
       | Mach.Sys Mach.Sys_arg -> put Arg 0 0 0 cm.Costmodel.sys_cycles
       | Mach.Adjsp k -> put Adjsp k 0 0 alu
       | Mach.Cnt p -> put Cnt (probe p) 0 0 alu
       | Mach.Halt -> put Halt 0 0 0 0
     with Bad_reg r -> put Bad_register r 0 0 0);
    let f = stride * !pc in
    args.(f + f_uses) <- Mach.uses_mask instr;
    let line = line_of icache !pc in
    args.(f + f_iline) <- line;
    args.(f + f_iset) <- set_of icache line;
    args.(f + f_func) <- (if !pc < Array.length func_of_pc then func_of_pc.(!pc) else -1);
    incr pc
  done;
  let vals = Bytes.make (8 * (sink + 1 + Hashtbl.length consts)) '\000' in
  List.iter (fun (slot, v) -> unsafe_set64 vals (8 * slot) v) !const_list;
  {
    ops;
    args;
    vals;
    syms = Array.of_list (List.rev !syms);
    probe_ids = Array.of_list (List.rev !probe_list);
  }

let run ?(input = [||]) ?(fuel = 500_000_000) ?(stack_cells = 65_536)
    ?(costmodel = Costmodel.default) ?(attribute = false) (image : Image.t) =
  let cm = costmodel in
  let code = image.Image.code in
  let code_len = Array.length code in
  let mem_size = image.Image.data_cells + stack_cells in
  let mem_cells = max mem_size 1 in
  if mem_cells > Sys.max_string_length / 8 then invalid_arg "Vm.run: memory too large";
  let mem = Bytes.make (8 * mem_cells) '\000' in
  List.iter
    (fun (addr, v) ->
      if addr < 0 || addr >= mem_cells then invalid_arg "index out of bounds";
      unsafe_set64 mem (8 * addr) v)
    image.Image.data_init;
  let icache =
    geometry ~total_bytes:cm.Costmodel.icache_bytes ~line_bytes:cm.Costmodel.line_bytes
      ~item_bytes:Mach.instr_bytes
  in
  let dcache =
    geometry ~total_bytes:cm.Costmodel.dcache_bytes
      ~line_bytes:cm.Costmodel.dcache_line_bytes ~item_bytes:8
  in
  (* Per-routine attribution: a direct pc -> routine-index map makes
     the per-instruction charge O(1). *)
  let func_names = Array.of_list (List.map (fun (n, _, _) -> n) image.Image.funcs) in
  let func_of_pc =
    if not attribute then [||]
    else begin
      let map = Array.make (max code_len 1) (-1) in
      List.iteri
        (fun idx (_, start, len) ->
          for a = start to start + len - 1 do
            map.(a) <- idx
          done)
        image.Image.funcs;
      map
    end
  in
  let d = decode cm ~icache ~func_of_pc code in
  let ops = d.ops and args = d.args and vals = d.vals in
  unsafe_set64 vals (8 * Mach.reg_sp) (Int64.of_int mem_size);
  let icache_lines = Array.make icache.num_lines (-1) in
  let dcache_lines = Array.make dcache.num_lines (-1) in
  let dcache_on = cm.Costmodel.dcache_miss_cycles > 0 in
  let stall = max 0 cm.Costmodel.load_use_stall in
  let counts = Array.make (Array.length d.probe_ids) 0 in
  let func_acc = Array.make (Array.length func_names) 0 in
  let ra_stack = ref (Array.make 64 0) in
  let depth = ref 0 in
  let output_rev = ref [] in
  let cycles = ref 0 in
  let instructions = ref 0 in
  let icache_misses = ref 0 in
  let dcache_accesses = ref 0 in
  let dcache_misses = ref 0 in
  let taken_branches = ref 0 in
  let calls = ref 0 in
  (* Every slot index below was range-checked by [decode]; every
     memory cell index against [mem_size] by [mem_access], which
     returns the access's d-cache cycles. *)
  let mem_access addr =
    if addr < 0 || addr >= mem_size then
      fault "memory access out of bounds: cell %d (size %d)" addr mem_size;
    if not dcache_on then 0
    else begin
      incr dcache_accesses;
      let line = line_of dcache addr in
      let set = set_of dcache line in
      if Array.unsafe_get dcache_lines set = line then 0
      else begin
        Array.unsafe_set dcache_lines set line;
        incr dcache_misses;
        cm.Costmodel.dcache_miss_cycles
      end
    end
  in
  let pc = ref image.Image.entry in
  let halted = ref false in
  (* Load-use hazard: registers written by the load retired in the
     previous slot (r0 included); consuming one stalls the pipeline. *)
  let pending_load = ref 0 in
  while not !halted do
    let p = !pc in
    if p < 0 || p >= code_len then fault "pc out of code: @%d" p;
    if !instructions >= fuel then fault "fuel exhausted (%d instructions)" fuel;
    incr instructions;
    let cycles_before = !cycles in
    let f = p * stride in
    let line = Array.unsafe_get args (f + f_iline) in
    let set = Array.unsafe_get args (f + f_iset) in
    if Array.unsafe_get icache_lines set <> line then begin
      Array.unsafe_set icache_lines set line;
      incr icache_misses;
      cycles := !cycles + cm.Costmodel.miss_cycles
    end;
    if !pending_load land Array.unsafe_get args (f + f_uses) <> 0 then
      cycles := !cycles + stall;
    pending_load := 0;
    cycles := !cycles + Array.unsafe_get args (f + f_cost);
    let a = Array.unsafe_get args (f + f_a) in
    let b = Array.unsafe_get args (f + f_b) in
    let c = Array.unsafe_get args (f + f_c) in
    let da = a lsl 3 in
    pc := p + 1;
    (match Array.unsafe_get ops p with
    | Add -> unsafe_set64 vals da (Int64.add (get vals b) (get vals c))
    | Sub -> unsafe_set64 vals da (Int64.sub (get vals b) (get vals c))
    | Mul -> unsafe_set64 vals da (Int64.mul (get vals b) (get vals c))
    | Div ->
      let y = get vals c in
      unsafe_set64 vals da (if Int64.equal y 0L then 0L else Int64.div (get vals b) y)
    | Rem ->
      let y = get vals c in
      unsafe_set64 vals da (if Int64.equal y 0L then 0L else Int64.rem (get vals b) y)
    | And -> unsafe_set64 vals da (Int64.logand (get vals b) (get vals c))
    | Or -> unsafe_set64 vals da (Int64.logor (get vals b) (get vals c))
    | Xor -> unsafe_set64 vals da (Int64.logxor (get vals b) (get vals c))
    | Shl -> unsafe_set64 vals da (Int64.shift_left (get vals b) (Int64.to_int (get vals c) land 63))
    | Shr -> unsafe_set64 vals da (Int64.shift_right (get vals b) (Int64.to_int (get vals c) land 63))
    | Eq -> unsafe_set64 vals da (if Int64.equal (get vals b) (get vals c) then 1L else 0L)
    | Ne -> unsafe_set64 vals da (if Int64.equal (get vals b) (get vals c) then 0L else 1L)
    | Lt -> unsafe_set64 vals da (if Int64.compare (get vals b) (get vals c) < 0 then 1L else 0L)
    | Le -> unsafe_set64 vals da (if Int64.compare (get vals b) (get vals c) <= 0 then 1L else 0L)
    | Gt -> unsafe_set64 vals da (if Int64.compare (get vals b) (get vals c) > 0 then 1L else 0L)
    | Ge -> unsafe_set64 vals da (if Int64.compare (get vals b) (get vals c) >= 0 then 1L else 0L)
    | Mv -> unsafe_set64 vals da (get vals b)
    | Neg -> unsafe_set64 vals da (Int64.neg (get vals b))
    | Not -> unsafe_set64 vals da (if Int64.equal (get vals b) 0L then 1L else 0L)
    | Ld ->
      let addr = Int64.to_int (get vals b) + c in
      cycles := !cycles + mem_access addr;
      unsafe_set64 vals da (unsafe_get64 mem (addr lsl 3));
      (* The sink slot stands for r0. *)
      pending_load := 1 lsl (a land (num_regs - 1))
    | St ->
      let addr = Int64.to_int (get vals b) + c in
      cycles := !cycles + mem_access addr;
      unsafe_set64 mem (addr lsl 3) (get vals a)
    | B ->
      incr taken_branches;
      pc := a
    | Bz ->
      if Int64.equal (get vals a) 0L then begin
        cycles := !cycles + cm.Costmodel.taken_branch_penalty;
        incr taken_branches;
        pc := b
      end
    | Bnz ->
      if not (Int64.equal (get vals a) 0L) then begin
        cycles := !cycles + cm.Costmodel.taken_branch_penalty;
        incr taken_branches;
        pc := b
      end
    | Call ->
      incr calls;
      if !depth >= max_call_depth then fault "call stack overflow";
      if !depth = Array.length !ra_stack then begin
        let grown = Array.make (2 * !depth) 0 in
        Array.blit !ra_stack 0 grown 0 !depth;
        ra_stack := grown
      end;
      Array.unsafe_set !ra_stack !depth (p + 1);
      incr depth;
      pc := a
    | Ret ->
      (* Return from main: program finished. *)
      if !depth = 0 then halted := true
      else begin
        decr depth;
        pc := Array.unsafe_get !ra_stack !depth
      end
    | Print ->
      let v = get vals (Mach.reg_arg 0) in
      output_rev := v :: !output_rev;
      unsafe_set64 vals (Mach.reg_rv lsl 3) v
    | Arg ->
      let i = Int64.to_int (get vals (Mach.reg_arg 0)) in
      let n = Array.length input in
      let v = if n = 0 then 0L else input.(((i mod n) + n) mod n) in
      unsafe_set64 vals (Mach.reg_rv lsl 3) v
    | Adjsp ->
      let sp = Int64.to_int (get vals Mach.reg_sp) + a in
      if sp < image.Image.data_cells then fault "stack overflow (sp=%d)" sp;
      if sp > mem_size then fault "stack underflow (sp=%d)" sp;
      unsafe_set64 vals (Mach.reg_sp lsl 3) (Int64.of_int sp)
    | Cnt -> Array.unsafe_set counts a (Array.unsafe_get counts a + 1)
    | Halt -> halted := true
    | Unresolved_global -> fault "unresolved global reference %s" d.syms.(a)
    | Unresolved_call -> fault "unresolved call to %s" d.syms.(a)
    | Bad_register -> fault "register r%d out of range at @%d" a p);
    if attribute then begin
      let idx = Array.unsafe_get args (f + f_func) in
      if idx >= 0 then func_acc.(idx) <- func_acc.(idx) + (!cycles - cycles_before)
    end
  done;
  let probes = ref [] in
  Array.iteri
    (fun slot id ->
      if counts.(slot) > 0 then probes := (id, Int64.of_int counts.(slot)) :: !probes)
    d.probe_ids;
  let probes = List.sort (fun (a, _) (b, _) -> compare a b) !probes in
  let func_cycles =
    if not attribute then []
    else
      Array.to_list (Array.mapi (fun i c -> (func_names.(i), c)) func_acc)
      |> List.filter (fun (_, c) -> c > 0)
      |> List.sort (fun (n1, c1) (n2, c2) ->
             match compare c2 c1 with 0 -> compare n1 n2 | c -> c)
  in
  {
    ret = get vals Mach.reg_rv;
    output = List.rev !output_rev;
    cycles = !cycles;
    instructions = !instructions;
    icache_accesses = !instructions;
    icache_misses = !icache_misses;
    taken_branches = !taken_branches;
    calls = !calls;
    dcache_accesses = !dcache_accesses;
    dcache_misses = !dcache_misses;
    probes;
    func_cycles;
  }
