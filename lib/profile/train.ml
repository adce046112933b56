let run ?input ?fuel modules db =
  let instrumented, manifest = Probe.instrument modules in
  let outcome = Cmo_il.Interp.run ?input ?fuel instrumented in
  Probe.record_counters manifest outcome.Cmo_il.Interp.probes db;
  outcome
