let () =
  Alcotest.run "mview"
    (Test_budget.suite @ Test_base.suite @ Test_relalg.suite @ Test_matching.suite
   @ Test_extra_tables.suite @ Test_aggregation.suite @ Test_sql.suite
   @ Test_lattice.suite @ Test_engine.suite @ Test_naive.suite
   @ Test_compiled.suite
   @ Test_equivalence.suite
   @ Test_filter_tree.suite @ Test_optimizer.suite @ Test_relaxed_nulls.suite
   @ Test_tpch.suite @ Test_workload.suite @ Test_util.suite
   @ Test_checks.suite @ Test_backjoin.suite @ Test_index.suite
   @ Test_opt_internals.suite @ Test_eval_funcs.suite
   @ Test_compensation_routing.suite @ Test_filter_levels.suite
   @ Test_experiments.suite @ Test_disjunction.suite @ Test_invariants.suite
   @ Test_dimension_hierarchy.suite @ Test_obs.suite @ Test_span.suite
   @ Test_whynot.suite
   @ Test_prop_equivalence.suite @ Test_prop_filter.suite
   @ Test_parallel.suite @ Test_dynamic.suite @ Test_cache.suite
   @ Test_serve.suite @ Test_stats.suite @ Test_adaptive.suite
   @ Test_ivm.suite @ Test_advisor.suite @ Test_health.suite
   @ Test_golden.suite @ Test_paper_scale.suite)
