(** Optimizer tests: plan correctness (every emitted plan computes the
    query's relation, with or without views), the Example 4 preaggregation
    path, configuration behaviour, and cost-based view choice. *)

module Spjg = Mv_relalg.Spjg
module Opt = Mv_opt.Optimizer

let schema = Mv_tpch.Schema.schema

let db = lazy (Mv_tpch.Datagen.generate ~seed:47 ~scale:2 ())

let stats = lazy (Mv_engine.Database.stats (Lazy.force db))

let check_plan_correct ?(registry = Mv_core.Registry.create schema) query_sql =
  let query = Mv_sql.Parser.parse_query schema query_sql in
  let db = Lazy.force db in
  let r = Opt.optimize registry (Lazy.force stats) query in
  let direct = Mv_engine.Exec.execute db query in
  let via = Mv_opt.Plan_exec.execute db query r.Opt.plan in
  if not (Mv_engine.Relation.same_bag direct via) then
    Alcotest.failf "plan computes a different relation.\nquery: %s\nplan:\n%s"
      query_sql
      (Mv_opt.Plan.to_string r.Opt.plan);
  r

let test_single_table () =
  ignore (check_plan_correct "select l_orderkey from lineitem where l_quantity >= 30")

let test_join_order_chain () =
  ignore
    (check_plan_correct
       "select l_orderkey, c_name from lineitem, orders, customer where \
        l_orderkey = o_orderkey and o_custkey = c_custkey and l_quantity <= 12")

let test_star_join () =
  ignore
    (check_plan_correct
       "select l_orderkey from lineitem, part, supplier where l_partkey = \
        p_partkey and l_suppkey = s_suppkey and p_size >= 20")

let test_aggregation_plan () =
  ignore
    (check_plan_correct
       "select o_custkey, sum(l_quantity) as q, count(*) as n from lineitem, \
        orders where l_orderkey = o_orderkey group by o_custkey")

let test_residual_join_pred () =
  ignore
    (check_plan_correct
       "select l_orderkey from lineitem, orders where l_orderkey = o_orderkey \
        and l_shipdate >= o_orderdate")

let test_cross_product_query () =
  ignore
    (check_plan_correct
       "select r_name, n_name from region, nation where r_regionkey >= 3 and \
        n_nationkey <= 2")

let make_registry views =
  let r = Mv_core.Registry.create schema in
  List.iter
    (fun (name, sql) ->
      let _, spjg = Mv_sql.Parser.parse_view schema sql in
      ignore
        (Mv_core.Registry.add_view r ~name
           ~row_count:(Mv_opt.Cost.estimate_view_rows (Lazy.force stats) spjg)
           spjg))
    views;
  r

let test_view_chosen_when_cheaper () =
  let registry =
    make_registry
      [
        ( "opt_v1",
          {| create view opt_v1 with schemabinding as
             select o_custkey, count_big(*) as cnt, sum(l_quantity) as qty
             from dbo.lineitem, dbo.orders
             where l_orderkey = o_orderkey
             group by o_custkey |} );
      ]
  in
  let r =
    check_plan_correct ~registry
      "select o_custkey, sum(l_quantity) as qty from lineitem, orders where \
       l_orderkey = o_orderkey group by o_custkey"
  in
  Alcotest.(check bool) "uses the view" true r.Opt.used_views

let test_example4_preaggregation () =
  let registry =
    make_registry
      [
        ( "opt_v4",
          {| create view opt_v4 with schemabinding as
             select o_custkey, count_big(*) as cnt,
                    sum(l_quantity * l_extendedprice) as revenue
             from dbo.lineitem, dbo.orders
             where l_orderkey = o_orderkey
             group by o_custkey |} );
      ]
  in
  let r =
    check_plan_correct ~registry
      "select c_nationkey, sum(l_quantity * l_extendedprice) as revenue from \
       lineitem, orders, customer where l_orderkey = o_orderkey and o_custkey \
       = c_custkey group by c_nationkey"
  in
  Alcotest.(check bool) "example 4 uses the view" true r.Opt.used_views

let test_noalt_produces_no_view_plans () =
  let registry =
    make_registry
      [
        ( "opt_v2",
          {| create view opt_v2 with schemabinding as
             select l_orderkey, l_quantity from dbo.lineitem |} );
      ]
  in
  let query =
    Mv_sql.Parser.parse_query schema "select l_orderkey from lineitem"
  in
  let r =
    Opt.optimize
      ~config:{ Opt.produce_substitutes = false }
      registry (Lazy.force stats) query
  in
  Alcotest.(check bool) "no views used" false r.Opt.used_views;
  (* but the rule was still invoked (the paper's NoAlt measurement mode) *)
  Alcotest.(check bool) "rule invoked" true
    (Mv_obs.Registry.counter_value registry.Mv_core.Registry.obs
       "rule.invocations"
    > 0)

let test_irrelevant_view_not_used () =
  let registry =
    make_registry
      [
        ( "opt_v3",
          {| create view opt_v3 with schemabinding as
             select s_suppkey, s_name from dbo.supplier |} );
      ]
  in
  let r =
    check_plan_correct ~registry
      "select l_orderkey from lineitem where l_quantity >= 10"
  in
  Alcotest.(check bool) "irrelevant view unused" false r.Opt.used_views

(* every optimizer plan over random workload queries computes the same
   relation as direct execution — with a populated registry, so view plans
   appear regularly *)
let plan_equivalence_prop =
  let registry =
    lazy
      (let r = Mv_core.Registry.create schema in
       List.iter
         (fun (name, spjg) ->
           ignore
             (Mv_core.Registry.add_view r ~name
                ~row_count:(Mv_opt.Cost.estimate_view_rows (Lazy.force stats) spjg)
                spjg))
         (Mv_workload.Generator.views ~seed:4711 schema (Lazy.force stats) 150);
       r)
  in
  QCheck.Test.make ~name:"optimizer: plans compute the query's relation"
    ~count:150 QCheck.small_int
    (fun seed ->
      let rng = Mv_util.Prng.create (seed + 999331) in
      let q =
        Mv_workload.Generator.generate_query schema (Lazy.force stats) rng
      in
      let db = Lazy.force db in
      let r = Opt.optimize (Lazy.force registry) (Lazy.force stats) q in
      let direct = Mv_engine.Exec.execute db q in
      let via = Mv_opt.Plan_exec.execute db q r.Opt.plan in
      if not (Mv_engine.Relation.same_bag direct via) then
        QCheck.Test.fail_reportf
          "plan diverges.\nquery:\n%s\nplan:\n%s\ndirect=%d via=%d"
          (Spjg.to_sql q)
          (Mv_opt.Plan.to_string r.Opt.plan)
          (Mv_engine.Relation.cardinality direct)
          (Mv_engine.Relation.cardinality via)
      else true)

let suite =
  [
    ( "optimizer",
      [
        Alcotest.test_case "single table" `Quick test_single_table;
        Alcotest.test_case "chain join" `Quick test_join_order_chain;
        Alcotest.test_case "star join" `Quick test_star_join;
        Alcotest.test_case "aggregation" `Quick test_aggregation_plan;
        Alcotest.test_case "residual join predicate" `Quick test_residual_join_pred;
        Alcotest.test_case "cross product" `Quick test_cross_product_query;
        Alcotest.test_case "view chosen when cheaper" `Quick
          test_view_chosen_when_cheaper;
        Alcotest.test_case "example 4 via preaggregation" `Quick
          test_example4_preaggregation;
        Alcotest.test_case "NoAlt mode" `Quick test_noalt_produces_no_view_plans;
        Alcotest.test_case "irrelevant view unused" `Quick
          test_irrelevant_view_not_used;
        Helpers.qtest plan_equivalence_prop;
      ] );
  ]
