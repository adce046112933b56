(* Reference oracle for the machine simulator: the [Vm.run] that the
   pre-decoded interpreter in [lib/vm/vm.ml] replaced (a boxed [int64]
   register file, [Mach.uses] lists for the load-use check, a
   [Hashtbl] of probe counters) and its direct-mapped cache model,
   kept as they were so the property suite in [test_vm.ml] can hold
   the new code to the same outcomes and the same [Fault] messages.
   Not used by the compiler. *)

module Costmodel = Cmo_vm.Costmodel
module Mach = Cmo_llo.Mach
module Instr = Cmo_il.Instr
module Image = Cmo_link.Image

module Icache = struct
  type t = {
    lines : int array;  (* tag per line; -1 = invalid *)
    num_lines : int;
    instrs_per_line : int;
    mutable accesses : int;
    mutable misses : int;
  }

  let create_custom ~total_bytes ~line_bytes ~item_bytes =
    let num_lines = max 1 (total_bytes / line_bytes) in
    {
      lines = Array.make num_lines (-1);
      num_lines;
      instrs_per_line = max 1 (line_bytes / item_bytes);
      accesses = 0;
      misses = 0;
    }

  let create (cm : Costmodel.t) =
    create_custom ~total_bytes:cm.Costmodel.icache_bytes
      ~line_bytes:cm.Costmodel.line_bytes ~item_bytes:Mach.instr_bytes

  let fetch t addr =
    t.accesses <- t.accesses + 1;
    let line_no = addr / t.instrs_per_line in
    let index = line_no mod t.num_lines in
    let tag = line_no / t.num_lines in
    if t.lines.(index) = tag then true
    else begin
      t.lines.(index) <- tag;
      t.misses <- t.misses + 1;
      false
    end

  let accesses t = t.accesses

  let misses t = t.misses
end

type outcome = Cmo_vm.Vm.outcome = {
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

let run ?(input = [||]) ?(fuel = 500_000_000) ?(stack_cells = 65_536)
    ?(costmodel = Costmodel.default) ?(attribute = false) (image : Image.t) =
  let cm = costmodel in
  let code = image.Image.code in
  let code_len = Array.length code in
  let mem_size = image.Image.data_cells + stack_cells in
  let mem = Array.make (max mem_size 1) 0L in
  List.iter (fun (addr, v) -> mem.(addr) <- v) image.Image.data_init;
  let regs = Array.make 32 0L in
  regs.(Mach.reg_sp) <- Int64.of_int mem_size;
  let icache = Icache.create cm in
  let dcache =
    Icache.create_custom ~total_bytes:cm.Costmodel.dcache_bytes
      ~line_bytes:cm.Costmodel.dcache_line_bytes ~item_bytes:8
  in
  let probes = Hashtbl.create 64 in
  let output_rev = ref [] in
  let ra_stack = ref [] in
  let depth = ref 0 in  (* List.length !ra_stack, kept in O(1) *)
  let cycles = ref 0 in
  let instructions = ref 0 in
  let taken_branches = ref 0 in
  let calls = ref 0 in
  let get r = if r = Mach.reg_zero then 0L else regs.(r) in
  let set r v = if r <> Mach.reg_zero then regs.(r) <- v in
  let mem_access addr =
    if addr < 0 || addr >= mem_size then
      fault "memory access out of bounds: cell %d (size %d)" addr mem_size;
    if cm.Costmodel.dcache_miss_cycles > 0 && not (Icache.fetch dcache addr)
    then cycles := !cycles + cm.Costmodel.dcache_miss_cycles;
    addr
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
  let func_acc = Array.make (Array.length func_names) 0 in
  let pc = ref image.Image.entry in
  let halted = ref false in
  let final_ret = ref 0L in
  (* Load-use hazard: destination of the load retired in the previous
     slot; consuming it immediately stalls the pipeline. *)
  let pending_load = ref (-1) in
  while not !halted do
    if !pc < 0 || !pc >= code_len then fault "pc out of code: @%d" !pc;
    if !instructions >= fuel then fault "fuel exhausted (%d instructions)" fuel;
    incr instructions;
    let cycles_before = !cycles in
    let attributed_pc = !pc in
    if not (Icache.fetch icache !pc) then cycles := !cycles + cm.Costmodel.miss_cycles;
    (if !pending_load >= 0 && cm.Costmodel.load_use_stall > 0 then begin
       let instr = code.(!pc) in
       if List.mem !pending_load (Mach.uses instr) then
         cycles := !cycles + cm.Costmodel.load_use_stall
     end);
    pending_load :=
      (match code.(!pc) with Mach.Ld (d, _, _) -> d | _ -> -1);
    let next = !pc + 1 in
    (match code.(!pc) with
    | Mach.Li (d, v) ->
      set d v;
      cycles := !cycles + cm.Costmodel.alu_cycles;
      pc := next
    | Mach.Mv (d, s) ->
      set d (get s);
      cycles := !cycles + cm.Costmodel.alu_cycles;
      pc := next
    | Mach.Op (op, d, a, b) ->
      set d (Instr.eval_binop op (get a) (get b));
      cycles := !cycles + Costmodel.op_cycles cm op;
      pc := next
    | Mach.Opi (op, d, s, imm) ->
      set d (Instr.eval_binop op (get s) imm);
      cycles := !cycles + Costmodel.op_cycles cm op;
      pc := next
    | Mach.Un (op, d, s) ->
      set d (Instr.eval_unop op (get s));
      cycles := !cycles + cm.Costmodel.alu_cycles;
      pc := next
    | Mach.Ld (d, b, off) ->
      let addr = mem_access (Int64.to_int (get b) + off) in
      set d mem.(addr);
      cycles := !cycles + cm.Costmodel.mem_cycles;
      pc := next
    | Mach.St (v, b, off) ->
      let addr = mem_access (Int64.to_int (get b) + off) in
      mem.(addr) <- get v;
      cycles := !cycles + cm.Costmodel.mem_cycles;
      pc := next
    | Mach.Lga (_, s) -> fault "unresolved global reference %s" s
    | Mach.Call_sym s -> fault "unresolved call to %s" s
    | Mach.B t ->
      cycles := !cycles + cm.Costmodel.alu_cycles + cm.Costmodel.taken_branch_penalty;
      incr taken_branches;
      pc := t
    | Mach.Bz (r, t) ->
      cycles := !cycles + cm.Costmodel.alu_cycles;
      if Int64.equal (get r) 0L then begin
        cycles := !cycles + cm.Costmodel.taken_branch_penalty;
        incr taken_branches;
        pc := t
      end
      else pc := next
    | Mach.Bnz (r, t) ->
      cycles := !cycles + cm.Costmodel.alu_cycles;
      if not (Int64.equal (get r) 0L) then begin
        cycles := !cycles + cm.Costmodel.taken_branch_penalty;
        incr taken_branches;
        pc := t
      end
      else pc := next
    | Mach.Call_abs t ->
      cycles := !cycles + cm.Costmodel.call_cycles;
      incr calls;
      ra_stack := next :: !ra_stack;
      incr depth;
      if !depth > max_call_depth then fault "call stack overflow";
      pc := t
    | Mach.Ret -> (
      cycles := !cycles + cm.Costmodel.ret_cycles;
      match !ra_stack with
      | ra :: rest ->
        ra_stack := rest;
        decr depth;
        pc := ra
      | [] ->
        (* Return from main: program finished. *)
        final_ret := get Mach.reg_rv;
        halted := true)
    | Mach.Sys Mach.Sys_print ->
      let v = get (Mach.reg_arg 0) in
      output_rev := v :: !output_rev;
      set Mach.reg_rv v;
      cycles := !cycles + cm.Costmodel.sys_cycles;
      pc := next
    | Mach.Sys Mach.Sys_arg ->
      let i = Int64.to_int (get (Mach.reg_arg 0)) in
      let n = Array.length input in
      let v = if n = 0 then 0L else input.(((i mod n) + n) mod n) in
      set Mach.reg_rv v;
      cycles := !cycles + cm.Costmodel.sys_cycles;
      pc := next
    | Mach.Adjsp n ->
      let sp = Int64.to_int (get Mach.reg_sp) + n in
      if sp < image.Image.data_cells then fault "stack overflow (sp=%d)" sp;
      if sp > mem_size then fault "stack underflow (sp=%d)" sp;
      set Mach.reg_sp (Int64.of_int sp);
      cycles := !cycles + cm.Costmodel.alu_cycles;
      pc := next
    | Mach.Cnt p ->
      let prev = Option.value ~default:0L (Hashtbl.find_opt probes p) in
      Hashtbl.replace probes p (Int64.add prev 1L);
      cycles := !cycles + cm.Costmodel.alu_cycles;
      pc := next
    | Mach.Halt ->
      final_ret := get Mach.reg_rv;
      halted := true);
    if attribute then begin
      let idx = func_of_pc.(attributed_pc) in
      if idx >= 0 then func_acc.(idx) <- func_acc.(idx) + (!cycles - cycles_before)
    end
  done;
  let probes =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) probes []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let func_cycles =
    if not attribute then []
    else
      Array.to_list (Array.mapi (fun i c -> (func_names.(i), c)) func_acc)
      |> List.filter (fun (_, c) -> c > 0)
      |> List.sort (fun (n1, c1) (n2, c2) ->
             match compare c2 c1 with 0 -> compare n1 n2 | c -> c)
  in
  {
    ret = !final_ret;
    output = List.rev !output_rev;
    cycles = !cycles;
    instructions = !instructions;
    icache_accesses = Icache.accesses icache;
    icache_misses = Icache.misses icache;
    taken_branches = !taken_branches;
    calls = !calls;
    dcache_accesses = Icache.accesses dcache;
    dcache_misses = Icache.misses dcache;
    probes;
    func_cycles;
  }
