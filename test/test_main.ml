let () =
  Alcotest.run "cmo"
    [
      ("support", Test_support.suite);
      ("obs", Test_obs.suite);
      ("il", Test_il.suite);
      ("frontend", Test_frontend.suite);
      ("profile", Test_profile.suite);
      ("ingest", Test_ingest.suite);
      ("cohort", Test_cohort.suite);
      ("naim", Test_naim.suite);
      ("hlo", Test_hlo.suite);
      ("llo", Test_llo.suite);
      ("link", Test_link.suite);
      ("driver", Test_driver.suite);
      ("cache", Test_cache.suite);
      ("workload", Test_workload.suite);
      ("parallel", Test_parallel.suite);
      ("check", Test_check.suite);
      ("corpus", Test_corpus.suite);
      ("fuzz", Test_fuzz.suite);
      ("misc", Test_misc.suite);
      ("fault", Test_fault.suite);
      ("server", Test_server.suite);
      ("dist", Test_dist.suite);
      ("anchor", Test_anchor.suite);
      ("analyses", Test_analyses.suite);
      ("xforms", Test_transforms.suite);
      ("codec", Test_codec.suite);
      ("vm", Test_vm.suite);
      ("backend", Test_backend.suite);
      ("lowering", Test_lowering.suite);
    ]
