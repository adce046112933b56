(* Calibration: the synthetic frontends lower roughly 2.5 IL
   instructions per source line (measured by the calibration test in
   test/test_size.ml), and the paper reports ~1.7 KB of expanded HLO
   memory per source line, of which about 2/3 is derived-attribute
   slots.  560 bytes per instruction (187 core + 373 derived) plus
   block/function/symbol overheads lands in that band. *)

let instr_core_bytes = 240
let instr_derived_bytes = 480
let block_overhead_bytes = 176
let func_overhead_bytes = 576
let symbol_entry_bytes = 96
let operand_bytes = 24

let reg_count = function Instr.Reg _ -> 1 | Instr.Imm _ -> 0

let rec arg_reg_count acc = function
  | [] -> acc
  | a :: rest -> arg_reg_count (acc + reg_count a) rest

(* The destination register plus the registers read: the length of
   [Instr.def] and [Instr.uses] together, without building them. *)
let instr_operand_count = function
  | Instr.Move (_, a) | Instr.Unop (_, _, a) -> 1 + reg_count a
  | Instr.Binop (_, _, a, b) -> 1 + reg_count a + reg_count b
  | Instr.Load (_, { Instr.index; _ }) -> 1 + reg_count index
  | Instr.Store ({ Instr.index; _ }, v) -> reg_count index + reg_count v
  | Instr.Call { dst; args; _ } ->
    (match dst with Some _ -> 1 | None -> 0) + arg_reg_count 0 args
  | Instr.Probe _ -> 0

(* One walk: the core bytes (derived slots excluded) and the
   instruction count, from which every routine figure below follows. *)
let core_and_instrs (f : Func.t) =
  let core = ref func_overhead_bytes and instrs = ref 0 in
  let rec walk = function
    | [] -> ()
    | i :: rest ->
      incr instrs;
      core := !core + instr_core_bytes + (operand_bytes * instr_operand_count i);
      walk rest
  in
  List.iter
    (fun (b : Func.block) ->
      core := !core + block_overhead_bytes;
      walk b.Func.instrs)
    f.Func.blocks;
  (!core, !instrs)

let expanded_of core instrs = core + (instr_derived_bytes * instrs)

(* The in-memory relocatable form: derived slots dropped, objects in
   stack layout with list pointers and redundant fields removed
   (paper 4.2.2) — modeled as half the pointer-free core.  (The
   serialized byte stream used for the repository and object files is
   denser still; HP's in-core compact form kept objects traversable
   by the loader, hence word-aligned.) *)
let compacted_of core = 128 + (core / 2)

let func_expanded_bytes f =
  let core, instrs = core_and_instrs f in
  expanded_of core instrs

let func_expanded_core_bytes f = fst (core_and_instrs f)

let func_charges f =
  let core, instrs = core_and_instrs f in
  (expanded_of core instrs, compacted_of core)

let module_symtab_expanded_bytes (m : Ilmod.t) =
  let name_bytes s = 24 + String.length s in
  let globals =
    List.fold_left
      (fun acc (g : Ilmod.global) ->
        acc + symbol_entry_bytes + name_bytes g.Ilmod.gname
        + (8 * Array.length g.Ilmod.init))
      0 m.Ilmod.globals
  in
  let funcs =
    List.fold_left
      (fun acc (f : Func.t) -> acc + symbol_entry_bytes + name_bytes f.Func.name)
      0 m.Ilmod.funcs
  in
  256 + globals + funcs

let module_expanded_bytes m =
  module_symtab_expanded_bytes m
  + List.fold_left (fun acc f -> acc + func_expanded_bytes f) 0 m.Ilmod.funcs
