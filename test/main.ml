let () =
  Alcotest.run "blitz"
    [
      ("util", Test_util.suite);
      ("relset", Test_relset.suite);
      ("catalog", Test_catalog.suite);
      ("graph", Test_graph.suite);
      ("cost", Test_cost.suite);
      ("plan", Test_plan.suite);
      ("blitzsplit", Test_blitzsplit.suite);
      ("orders", Test_orders.suite);
      ("multiway", Test_multiway.suite);
      ("differential", Test_differential.suite);
      ("split-kernel", Test_split_kernel.suite);
      ("core-misc", Test_core_misc.suite);
      ("threshold", Test_threshold.suite);
      ("parallel", Test_parallel.suite);
      ("baselines", Test_baselines.suite);
      ("dpccp", Test_dpccp.suite);
      ("ikkbz", Test_ikkbz.suite);
      ("volcano", Test_volcano.suite);
      ("hybrid", Test_hybrid.suite);
      ("engine", Test_engine.suite);
      ("guard", Test_guard.suite);
      ("cache", Test_cache.suite);
      ("workload", Test_workload.suite);
      ("tpch", Test_tpch.suite);
      ("exec", Test_exec.suite);
      ("sql", Test_sql.suite);
      ("obs", Test_obs.suite);
      ("robust", Test_robust.suite);
      ("serve", Test_serve.suite);
    ]
