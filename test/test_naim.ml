(* Tests for the NAIM subsystem: the memory accountant, the disk
   repository, and the loader's state machine (pin/release, LRU
   eviction, thresholds, symbol-table compaction, offloading). *)

module Memstats = Cmo_naim.Memstats
module Repository = Cmo_naim.Repository
module Loader = Cmo_naim.Loader
module Func = Cmo_il.Func
module Ilmod = Cmo_il.Ilmod
module Size = Cmo_il.Size

(* ---------- Memstats ---------- *)

let test_memstats_charge_release () =
  let m = Memstats.create () in
  Memstats.charge m Memstats.Ir_expanded 100;
  Memstats.charge m Memstats.Global 50;
  Alcotest.(check int) "resident" 150 (Memstats.resident m);
  Memstats.release m Memstats.Ir_expanded 40;
  Alcotest.(check int) "after release" 110 (Memstats.resident m);
  Alcotest.(check int) "category" 60 (Memstats.resident_of m Memstats.Ir_expanded)

let test_memstats_peak () =
  let m = Memstats.create () in
  Memstats.charge m Memstats.Ir_expanded 100;
  Memstats.release m Memstats.Ir_expanded 100;
  Memstats.charge m Memstats.Ir_expanded 30;
  Alcotest.(check int) "peak persists" 100 (Memstats.peak m);
  Memstats.reset_peak m;
  Alcotest.(check int) "peak reset to current" 30 (Memstats.peak m)

let test_memstats_hlo_excludes_llo () =
  let m = Memstats.create () in
  Memstats.charge m Memstats.Ir_expanded 100;
  Memstats.charge m Memstats.Llo 500;
  Alcotest.(check int) "hlo resident" 100 (Memstats.hlo_resident m);
  Alcotest.(check int) "total resident" 600 (Memstats.resident m);
  Alcotest.(check int) "hlo peak" 100 (Memstats.peak_hlo m)

let test_memstats_merge_empty () =
  (* Merging a fresh accountant is a no-op: no residency moves, no
     peak inflation in either direction. *)
  let dst = Memstats.create () in
  Memstats.charge dst Memstats.Ir_expanded 100;
  Memstats.release dst Memstats.Ir_expanded 60;
  Memstats.merge dst (Memstats.create ());
  Alcotest.(check int) "resident unchanged" 40 (Memstats.resident dst);
  Alcotest.(check int) "peak unchanged" 100 (Memstats.peak dst);
  let empty = Memstats.create () in
  Memstats.merge empty (Memstats.create ());
  Alcotest.(check int) "empty into empty" 0 (Memstats.resident empty);
  Alcotest.(check int) "empty peak" 0 (Memstats.peak empty)

let test_memstats_merge_residency () =
  (* The worker's peak is modeled on top of dst's residency at merge
     time; a worker peak smaller than dst's own never lowers it. *)
  let dst = Memstats.create () in
  Memstats.charge dst Memstats.Ir_expanded 100;
  Memstats.release dst Memstats.Ir_expanded 50;
  let src = Memstats.create () in
  Memstats.charge src Memstats.Ir_compacted 30;
  Memstats.release src Memstats.Ir_compacted 30;
  Memstats.merge dst src;
  Alcotest.(check int) "resident sums" 50 (Memstats.resident dst);
  (* dst resident 50 + src peak 30 = 80 < dst's own peak 100 *)
  Alcotest.(check int) "peak stays" 100 (Memstats.peak dst);
  let src2 = Memstats.create () in
  Memstats.charge src2 Memstats.Llo 70;
  Memstats.merge dst src2;
  Alcotest.(check int) "resident includes src2" 120 (Memstats.resident dst);
  (* dst resident 50 + src2 peak 70 = 120 > 100 *)
  Alcotest.(check int) "peak grows" 120 (Memstats.peak dst);
  (* LLO bytes stay out of the HLO series across the merge. *)
  Alcotest.(check int) "hlo peak untouched by llo" 100 (Memstats.peak_hlo dst)

let test_memstats_underflow_rejected () =
  let m = Memstats.create () in
  Memstats.charge m Memstats.Derived 10;
  Alcotest.(check bool) "underflow raises" true
    (try
       Memstats.release m Memstats.Derived 11;
       false
     with Invalid_argument _ -> true)

(* ---------- Repository ---------- *)

let test_repository_memory_roundtrip () =
  let r = Repository.in_memory () in
  let h1 = Repository.store r "hello" in
  let h2 = Repository.store r "world!" in
  Alcotest.(check string) "first" "hello" (Repository.fetch r h1);
  Alcotest.(check string) "second" "world!" (Repository.fetch r h2);
  Alcotest.(check int) "bytes" 11 (Repository.stored_bytes r);
  Alcotest.(check int) "stores" 2 (Repository.stores r);
  Alcotest.(check int) "fetches" 2 (Repository.fetches r)

let test_repository_file_roundtrip () =
  let path = Filename.temp_file "cmo_repo" ".bin" in
  let r = Repository.create ~path in
  Fun.protect
    ~finally:(fun () ->
      Repository.close r;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let h1 = Repository.store r (String.make 1000 'x') in
      let h2 = Repository.store r "abc" in
      Alcotest.(check string) "second" "abc" (Repository.fetch r h2);
      Alcotest.(check int) "first length" 1000
        (String.length (Repository.fetch r h1)))

let test_repository_close_removes_file () =
  let path = Filename.temp_file "cmo_repo" ".bin" in
  let r = Repository.create ~path in
  ignore (Repository.store r "data");
  Repository.close r;
  Alcotest.(check bool) "file removed" false (Sys.file_exists path)

let test_repository_foreign_handle_rejected () =
  let a = Repository.in_memory () in
  let b = Repository.in_memory () in
  let h = Repository.store a "data" in
  Alcotest.(check bool) "foreign handle rejected" true
    (try
       ignore (Repository.fetch b h);
       false
     with Invalid_argument _ -> true)

(* ---------- Loader ---------- *)

(* A module with [n] functions, each with a distinctive body. *)
let make_module ?(fn_blocks = 1) name n =
  let m = Ilmod.create name in
  ignore (Ilmod.add_global m ~name:(name ^ "_g") ~size:8 ~exported:true ());
  for i = 0 to n - 1 do
    let f =
      Func.create
        ~name:(Printf.sprintf "%s_f%d" name i)
        ~arity:1 ~linkage:Func.Exported
    in
    for b = 0 to fn_blocks - 1 do
      let r1 = Func.new_reg f in
      let r2 = Func.new_reg f in
      let block =
        Func.add_block f
          [
            Cmo_il.Instr.Binop
              (Cmo_il.Instr.Mul, r1, Cmo_il.Instr.Reg 0,
               Cmo_il.Instr.Imm (Int64.of_int (i + b + 2)));
            Cmo_il.Instr.Binop
              (Cmo_il.Instr.Add, r2, Cmo_il.Instr.Reg r1, Cmo_il.Instr.Imm 1L);
          ]
          (Cmo_il.Instr.Ret (Some (Cmo_il.Instr.Reg r2)))
      in
      if b = 0 then f.Func.entry <- block.Func.label
    done;
    f.Func.src_lines <- 4;
    Ilmod.add_func m f
  done;
  m

let tiny_config ~machine_memory ?forced_level () =
  {
    Loader.machine_memory;
    ir_threshold = 0.25;
    st_threshold = 0.45;
    offload_threshold = 0.70;
    cache_fraction = 0.30;
    forced_level;
  }

let new_loader ?forced_level ~machine_memory () =
  let mem = Memstats.create () in
  Loader.create (tiny_config ~machine_memory ?forced_level ()) mem

let test_loader_register_and_acquire () =
  let t = new_loader ~machine_memory:(1 lsl 30) () in
  let m = make_module "alpha" 3 in
  Loader.register_module t m;
  Alcotest.(check int) "funcs emptied from module" 0 (List.length m.Ilmod.funcs);
  Alcotest.(check (list string)) "names"
    [ "alpha_f0"; "alpha_f1"; "alpha_f2" ]
    (Loader.func_names t);
  let f = Loader.acquire t "alpha_f1" in
  Alcotest.(check string) "right function" "alpha_f1" f.Func.name;
  Loader.release t "alpha_f1";
  Loader.close t

let test_loader_acquire_unknown () =
  let t = new_loader ~machine_memory:(1 lsl 30) () in
  Alcotest.(check bool) "unknown raises Not_found" true
    (try
       ignore (Loader.acquire t "nope");
       false
     with Not_found -> true);
  Loader.close t

let test_loader_naim_off_keeps_expanded () =
  (* Huge machine: thresholds never trip; everything stays expanded. *)
  let t = new_loader ~machine_memory:(1 lsl 30) () in
  Loader.register_module t (make_module "alpha" 10);
  List.iter
    (fun n -> Loader.with_func t n (fun _ -> ()))
    (Loader.func_names t);
  let s = Loader.stats t in
  Alcotest.(check int) "no compactions" 0 s.Loader.compactions;
  Alcotest.(check int) "all cache hits" s.Loader.acquires s.Loader.cache_hits;
  Alcotest.(check bool) "level off" true (Loader.level t = Loader.Off);
  Loader.close t

let test_loader_compaction_under_pressure () =
  (* Small machine: forced IR compaction evicts cold pools. *)
  let t =
    new_loader ~machine_memory:20_000 ~forced_level:Loader.Ir_compaction ()
  in
  Loader.register_module t (make_module ~fn_blocks:4 "alpha" 20);
  let mem = Loader.memstats t in
  let s = Loader.stats t in
  Alcotest.(check bool) "compactions happened" true (s.Loader.compactions > 0);
  Alcotest.(check bool) "compacted bytes charged" true
    (Memstats.resident_of mem Memstats.Ir_compacted > 0);
  (* Re-acquiring decodes transparently. *)
  let f = Loader.acquire t "alpha_f0" in
  Alcotest.(check string) "decoded fine" "alpha_f0" f.Func.name;
  Alcotest.(check bool) "uncompaction counted" true
    ((Loader.stats t).Loader.uncompactions > 0);
  Loader.release t "alpha_f0";
  Loader.close t

let test_loader_compaction_saves_memory () =
  let measure forced_level =
    let t = new_loader ~machine_memory:20_000 ?forced_level () in
    Loader.register_module t (make_module ~fn_blocks:4 "alpha" 20);
    Loader.unload_all t;
    let resident = Memstats.resident (Loader.memstats t) in
    Loader.close t;
    resident
  in
  let off = measure (Some Loader.Off) in
  let compacted = measure (Some Loader.Ir_compaction) in
  Alcotest.(check bool)
    (Printf.sprintf "compacted %d << expanded %d" compacted off)
    true
    (compacted * 3 < off)

let test_loader_offload_discharges_memory () =
  let t = new_loader ~machine_memory:20_000 ~forced_level:Loader.Offloading () in
  Loader.register_module t (make_module ~fn_blocks:4 "alpha" 20);
  Loader.unload_all t;
  let mem = Loader.memstats t in
  Alcotest.(check int) "no expanded IR" 0
    (Memstats.resident_of mem Memstats.Ir_expanded);
  Alcotest.(check int) "no compacted IR" 0
    (Memstats.resident_of mem Memstats.Ir_compacted);
  Alcotest.(check bool) "offloads counted" true
    ((Loader.stats t).Loader.offloads > 0);
  (* Everything still loads back correctly. *)
  List.iter
    (fun n ->
      Loader.with_func t n (fun f ->
          Alcotest.(check string) "right func back" n f.Func.name))
    (Loader.func_names t);
  Alcotest.(check bool) "repo loads counted" true
    ((Loader.stats t).Loader.repo_loads > 0);
  Loader.close t

let test_loader_roundtrip_preserves_code () =
  let t = new_loader ~machine_memory:20_000 ~forced_level:Loader.Offloading () in
  let original = make_module ~fn_blocks:3 "alpha" 5 in
  let instr_counts =
    List.map (fun f -> (f.Func.name, Func.instr_count f)) original.Ilmod.funcs
  in
  Loader.register_module t original;
  Loader.unload_all t;
  List.iter
    (fun (name, expected) ->
      Loader.with_func t name (fun f ->
          Alcotest.(check int) (name ^ " instrs") expected (Func.instr_count f)))
    instr_counts;
  Loader.close t

let test_loader_pinned_never_evicted () =
  let t = new_loader ~machine_memory:10_000 ~forced_level:Loader.Offloading () in
  Loader.register_module t (make_module ~fn_blocks:4 "alpha" 10);
  let f = Loader.acquire t "alpha_f0" in
  (* Create pressure by touching everything else. *)
  List.iter
    (fun n -> if n <> "alpha_f0" then Loader.with_func t n (fun _ -> ()))
    (Loader.func_names t);
  Loader.unload_all t;
  (* The pinned function must still be the same value, not a re-decode. *)
  let g = Loader.acquire t "alpha_f0" in
  Alcotest.(check bool) "same physical value" true (f == g);
  Loader.release t "alpha_f0";
  Loader.release t "alpha_f0";
  Loader.close t

let test_loader_update_adjusts_accounting () =
  let t = new_loader ~machine_memory:(1 lsl 30) () in
  Loader.register_module t (make_module "alpha" 1);
  let mem = Loader.memstats t in
  let before = Memstats.resident_of mem Memstats.Ir_expanded in
  let f = Loader.acquire t "alpha_f0" in
  (* Grow the function. *)
  let r = Func.new_reg f in
  let b =
    Func.add_block f
      [ Cmo_il.Instr.Move (r, Cmo_il.Instr.Imm 1L) ]
      (Cmo_il.Instr.Ret None)
  in
  ignore b;
  Loader.update t f;
  let after = Memstats.resident_of mem Memstats.Ir_expanded in
  Alcotest.(check bool) "accounting grew" true (after > before);
  Loader.release t "alpha_f0";
  Loader.close t

let test_loader_update_requires_acquired_value () =
  let t = new_loader ~machine_memory:(1 lsl 30) () in
  Loader.register_module t (make_module "alpha" 1);
  let _ = Loader.acquire t "alpha_f0" in
  let impostor = Helpers.make_linear_func "alpha_f0" in
  Alcotest.(check bool) "impostor rejected" true
    (try
       Loader.update t impostor;
       false
     with Invalid_argument _ -> true);
  Loader.release t "alpha_f0";
  Loader.close t

let test_loader_add_remove_func () =
  let t = new_loader ~machine_memory:(1 lsl 30) () in
  Loader.register_module t (make_module "alpha" 2);
  Loader.add_func t ~module_name:"alpha" (Helpers.make_linear_func "clone_1");
  Alcotest.(check (list string)) "clone registered"
    [ "alpha_f0"; "alpha_f1"; "clone_1" ]
    (Loader.func_names t);
  Alcotest.(check string) "clone in module" "alpha"
    (Loader.module_of_func t "clone_1");
  let before = Memstats.resident (Loader.memstats t) in
  Loader.remove_func t "clone_1";
  Alcotest.(check bool) "memory discharged" true
    (Memstats.resident (Loader.memstats t) < before);
  Alcotest.(check (list string)) "clone gone"
    [ "alpha_f0"; "alpha_f1" ]
    (Loader.func_names t);
  Loader.close t

let test_loader_symtab_compaction () =
  let t = new_loader ~machine_memory:20_000 ~forced_level:Loader.St_compaction () in
  Loader.register_module t (make_module ~fn_blocks:4 "alpha" 10);
  Loader.unload_all t;
  let mem = Loader.memstats t in
  Alcotest.(check bool) "symtab compacted" true
    ((Loader.stats t).Loader.symtab_compactions > 0);
  Alcotest.(check int) "no expanded symtab" 0
    (Memstats.resident_of mem Memstats.Symtab_expanded);
  (* Acquiring a routine re-expands the module symbol table. *)
  Loader.with_func t "alpha_f0" (fun _ ->
      Alcotest.(check bool) "symtab expanded while func live" true
        (Memstats.resident_of mem Memstats.Symtab_expanded > 0));
  Loader.close t

let test_loader_dynamic_thresholds () =
  (* Machine sized so that registration crosses the IR threshold. *)
  let t = new_loader ~machine_memory:100_000 () in
  Loader.register_module t (make_module ~fn_blocks:8 "alpha" 30);
  Alcotest.(check bool) "level escalated beyond Off" true
    (Loader.level t <> Loader.Off);
  let s = Loader.stats t in
  Alcotest.(check bool) "evictions happened" true (s.Loader.compactions > 0);
  Loader.close t

let test_loader_extract_modules () =
  let t = new_loader ~machine_memory:20_000 ~forced_level:Loader.Offloading () in
  let original = make_module ~fn_blocks:2 "alpha" 4 in
  let expected = List.map (fun f -> f.Func.name) original.Ilmod.funcs in
  Loader.register_module t original;
  Loader.unload_all t;
  match Loader.extract_modules t with
  | [ m ] ->
    Alcotest.(check string) "module name" "alpha" m.Ilmod.mname;
    Alcotest.(check (list string)) "functions restored in order" expected
      (List.map (fun f -> f.Func.name) m.Ilmod.funcs);
    Alcotest.(check int) "globals restored" 1 (List.length m.Ilmod.globals);
    Loader.close t
  | _ ->
    Loader.close t;
    Alcotest.fail "expected one module"

let test_loader_lru_evicts_coldest () =
  (* Cache budget fits about two pools: the most recently used pool
     must survive each eviction round. *)
  let t = new_loader ~machine_memory:50_000 ~forced_level:Loader.Ir_compaction () in
  Loader.register_module t (make_module ~fn_blocks:4 "alpha" 8);
  (* Touch f7 last so it is the hottest. *)
  List.iter (fun n -> Loader.with_func t n (fun _ -> ())) (Loader.func_names t);
  let hits_before = (Loader.stats t).Loader.cache_hits in
  (* The most recently used function should still be expanded. *)
  Loader.with_func t "alpha_f7" (fun _ -> ());
  let hits_after = (Loader.stats t).Loader.cache_hits in
  Alcotest.(check bool) "MRU stayed expanded (cache hit)" true
    (hits_after > hits_before);
  Loader.close t

let test_loader_lru_orders_by_acquire () =
  (* The victim is the pending pool with the oldest acquire tick, not
     the one released first: under nested pins the two orders differ. *)
  let m = make_module "alpha" 2 in
  let pool_bytes = Size.func_expanded_bytes (List.hd m.Ilmod.funcs) in
  (* The cache budget (30% of the machine) fits one pool, not two. *)
  let t =
    new_loader ~machine_memory:(5 * pool_bytes) ~forced_level:Loader.Ir_compaction ()
  in
  Loader.register_module t m;
  let a = "alpha_f0" and b = "alpha_f1" in
  ignore (Loader.acquire t a);
  ignore (Loader.acquire t b);
  Loader.release t b;
  let before = Loader.stats t in
  Loader.release t a;
  Loader.check_index t;
  let after = Loader.stats t in
  Alcotest.(check int) "one pool compacted" 1
    (after.Loader.compactions - before.Loader.compactions);
  ignore (Loader.acquire t b);
  let after_b = Loader.stats t in
  Alcotest.(check int) "B stayed expanded (cache hit)" 1
    (after_b.Loader.cache_hits - after.Loader.cache_hits);
  Alcotest.(check int) "B needed no uncompaction" 0
    (after_b.Loader.uncompactions - after.Loader.uncompactions);
  ignore (Loader.acquire t a);
  let after_a = Loader.stats t in
  Alcotest.(check int) "A was the victim (uncompaction)" 1
    (after_a.Loader.uncompactions - after_b.Loader.uncompactions);
  Loader.check_index t;
  Loader.close t

let suite =
  [
    ("memstats charge/release", `Quick, test_memstats_charge_release);
    ("memstats peak", `Quick, test_memstats_peak);
    ("memstats hlo vs llo", `Quick, test_memstats_hlo_excludes_llo);
    ("memstats merge empty", `Quick, test_memstats_merge_empty);
    ("memstats merge residency", `Quick, test_memstats_merge_residency);
    ("memstats underflow rejected", `Quick, test_memstats_underflow_rejected);
    ("repository in-memory", `Quick, test_repository_memory_roundtrip);
    ("repository file-backed", `Quick, test_repository_file_roundtrip);
    ("repository close removes file", `Quick, test_repository_close_removes_file);
    ("repository foreign handle", `Quick, test_repository_foreign_handle_rejected);
    ("loader register/acquire", `Quick, test_loader_register_and_acquire);
    ("loader unknown function", `Quick, test_loader_acquire_unknown);
    ("loader NAIM off", `Quick, test_loader_naim_off_keeps_expanded);
    ("loader compacts under pressure", `Quick, test_loader_compaction_under_pressure);
    ("loader compaction saves memory", `Quick, test_loader_compaction_saves_memory);
    ("loader offload discharges memory", `Quick, test_loader_offload_discharges_memory);
    ("loader roundtrip preserves code", `Quick, test_loader_roundtrip_preserves_code);
    ("loader pinned never evicted", `Quick, test_loader_pinned_never_evicted);
    ("loader update accounting", `Quick, test_loader_update_adjusts_accounting);
    ("loader update impostor rejected", `Quick, test_loader_update_requires_acquired_value);
    ("loader add/remove function", `Quick, test_loader_add_remove_func);
    ("loader symtab compaction", `Quick, test_loader_symtab_compaction);
    ("loader dynamic thresholds", `Quick, test_loader_dynamic_thresholds);
    ("loader extract modules", `Quick, test_loader_extract_modules);
    ("loader LRU keeps hot pools", `Quick, test_loader_lru_evicts_coldest);
    ("loader LRU orders by acquire", `Quick, test_loader_lru_orders_by_acquire);
  ]
