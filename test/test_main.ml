(* Aggregates every library's suites into one alcotest binary. *)

let () =
  Alcotest.run "p2pindex"
    (Test_stdx.suite @ Test_hashing.suite @ Test_xml.suite @ Test_xpath.suite @ Test_fuzzy.suite
   @ Test_dht.suite @ Test_storage.suite @ Test_p2pindex.suite @ Test_prefix.suite
   @ Test_cache.suite @ Test_bib.suite @ Test_workload.suite @ Test_sim.suite
   @ Test_engine.suite @ Test_obs.suite @ Test_bench_report.suite @ Test_churn.suite
   @ Test_faults.suite @ Test_quorum.suite
   @ Test_lint.suite @ Test_cli.suite)
