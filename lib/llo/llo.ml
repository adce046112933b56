module Memstats = Cmo_naim.Memstats

type stats = {
  routines : int;
  mach_instrs : int;
  spilled_vregs : int;
  peephole_rewrites : int;
  layout_changes : int;
}

let zero_stats =
  {
    routines = 0;
    mach_instrs = 0;
    spilled_vregs = 0;
    peephole_rewrites = 0;
    layout_changes = 0;
  }

let add_stats a b =
  {
    routines = a.routines + b.routines;
    mach_instrs = a.mach_instrs + b.mach_instrs;
    spilled_vregs = a.spilled_vregs + b.spilled_vregs;
    peephole_rewrites = a.peephole_rewrites + b.peephole_rewrites;
    layout_changes = a.layout_changes + b.layout_changes;
  }

(* Linear term: per-instruction structures (dependence graph nodes,
   live ranges).  Quadratic term: interference/dependence edges. *)
let modeled_llo_bytes n = (300 * n) + (n * n)

let compile_internal ?mem ?check ~layout ~schedule ~module_name f =
  let layout_changed = if layout then Layout.run f else false in
  (* Layout is the one LLO stage that rewrites IL (block order); the
     later stages work on vcode/mach forms the verifier cannot see. *)
  (match check with
  | Some run_check when layout -> run_check ~phase:"layout" f
  | Some _ | None -> ());
  let vc = Isel.select ~module_name f in
  if schedule then ignore (Sched.run vc);
  let mach_count =
    List.fold_left
      (fun acc (b : Isel.vblock) -> acc + List.length b.Isel.body + 1)
      0 vc.Isel.vblocks
  in
  let charged = Option.map (fun m ->
      let bytes = modeled_llo_bytes mach_count in
      Memstats.charge m Memstats.Llo bytes;
      (m, bytes))
    mem
  in
  let result = Regalloc.run vc in
  let peeps = Peephole.run result.Regalloc.vcode in
  let code = Codegen.emit result in
  Option.iter (fun (m, bytes) -> Memstats.release m Memstats.Llo bytes) charged;
  (code, result.Regalloc.spilled_vregs, peeps, layout_changed)

let compile_func ?mem ?check ?(layout = false) ?(schedule = true) ~module_name f =
  let code, _, _, _ =
    compile_internal ?mem ?check ~layout ~schedule ~module_name f
  in
  code

let compile_module ?mem ?check ?(layout = false) ?(schedule = true)
    (m : Cmo_il.Ilmod.t) =
  (* Per-module codegen span; instruction count attached at close. *)
  let traced = Cmo_obs.Obs.enabled () in
  if traced then Cmo_obs.Obs.span_begin ~cat:"llo" m.Cmo_il.Ilmod.mname;
  let stats = ref zero_stats in
  let codes =
    List.map
      (fun f ->
        let code, spills, peeps, layout_changed =
          compile_internal ?mem ?check ~layout ~schedule
            ~module_name:m.Cmo_il.Ilmod.mname f
        in
        stats :=
          add_stats !stats
            {
              routines = 1;
              mach_instrs = Array.length code.Mach.code;
              spilled_vregs = spills;
              peephole_rewrites = peeps;
              layout_changes = (if layout_changed then 1 else 0);
            };
        code)
      m.Cmo_il.Ilmod.funcs
  in
  if traced then
    Cmo_obs.Obs.span_end
      ~args:
        [
          ("routines", string_of_int !stats.routines);
          ("mach_instrs", string_of_int !stats.mach_instrs);
        ]
      ();
  (codes, !stats)
