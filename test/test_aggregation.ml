(** Aggregation matching (section 3.3): grouping-subset tests, count/sum
    mapping, AVG conversion, and the paper's Example 4 inner block. *)

open Helpers

let base_view =
  {| create view v_agg with schemabinding as
     select o_custkey, count_big(*) as cnt,
            sum(l_quantity * l_extendedprice) as revenue
     from dbo.lineitem, dbo.orders
     where l_orderkey = o_orderkey
     group by o_custkey |}

let test_example4_inner_block () =
  (* the inner block of example 4's preaggregated query matches v4 *)
  let query_sql =
    {| select o_custkey, sum(l_quantity * l_extendedprice) as rev
       from lineitem, orders
       where l_orderkey = o_orderkey
       group by o_custkey |}
  in
  let s = check_matches ~view_sql:base_view ~query_sql () in
  (* identical grouping: no further aggregation in the substitute *)
  Alcotest.(check bool)
    "no regrouping" false
    (Mv_core.Substitute.uses_regrouping s);
  check_equivalent ~query:(parse_q query_sql) s

let test_rollup_to_coarser_grouping () =
  (* view grouped by (o_custkey, o_orderdate); query by o_custkey only *)
  let view_sql =
    {| create view v_daily with schemabinding as
       select o_custkey, o_orderdate, count_big(*) as cnt,
              sum(l_quantity) as qty
       from dbo.lineitem, dbo.orders
       where l_orderkey = o_orderkey
       group by o_custkey, o_orderdate |}
  in
  let query_sql =
    {| select o_custkey, sum(l_quantity) as qty
       from lineitem, orders
       where l_orderkey = o_orderkey
       group by o_custkey |}
  in
  let s = check_matches ~view_sql ~query_sql () in
  Alcotest.(check bool) "regroups" true (Mv_core.Substitute.uses_regrouping s);
  check_equivalent ~query:(parse_q query_sql) s

let test_count_becomes_sum_of_counts () =
  let view_sql =
    {| create view v_daily2 with schemabinding as
       select o_custkey, o_orderdate, count_big(*) as cnt
       from dbo.lineitem, dbo.orders
       where l_orderkey = o_orderkey
       group by o_custkey, o_orderdate |}
  in
  let query_sql =
    {| select o_custkey, count(*) as n
       from lineitem, orders
       where l_orderkey = o_orderkey
       group by o_custkey |}
  in
  let s = check_matches ~view_sql ~query_sql () in
  check_equivalent ~query:(parse_q query_sql) s

let test_count_maps_to_count_column () =
  (* same grouping: count(star) is just the view's cnt column *)
  let query_sql =
    {| select o_custkey, count(*) as n
       from lineitem, orders
       where l_orderkey = o_orderkey
       group by o_custkey |}
  in
  let s = check_matches ~view_sql:base_view ~query_sql () in
  Alcotest.(check bool)
    "no regrouping" false
    (Mv_core.Substitute.uses_regrouping s);
  check_equivalent ~query:(parse_q query_sql) s

let test_avg_same_grouping () =
  let query_sql =
    {| select o_custkey, avg(l_quantity * l_extendedprice) as a
       from lineitem, orders
       where l_orderkey = o_orderkey
       group by o_custkey |}
  in
  let s = check_matches ~view_sql:base_view ~query_sql () in
  check_equivalent ~query:(parse_q query_sql) s

let test_avg_with_regrouping () =
  let view_sql =
    {| create view v_daily3 with schemabinding as
       select o_custkey, o_orderdate, count_big(*) as cnt,
              sum(l_quantity) as qty
       from dbo.lineitem, dbo.orders
       where l_orderkey = o_orderkey
       group by o_custkey, o_orderdate |}
  in
  let query_sql =
    {| select o_custkey, avg(l_quantity) as a
       from lineitem, orders
       where l_orderkey = o_orderkey
       group by o_custkey |}
  in
  let s = check_matches ~view_sql ~query_sql () in
  check_equivalent ~query:(parse_q query_sql) s

(* AVG over a nullable argument: the view's COUNT_BIG( * ) also counts the
   rows whose y is NULL, so neither AVG rewrite may divide by it. Over the
   rows (k, y) = (1, 2.0), (1, NULL), (2, 4.0), (2, NULL), AVG(y) is 2 and
   4 per k and 3 overall, where s / cnt would give 1 and 2, and
   SUM(s) / SUM(cnt) 1.5. *)
let nullable_schema =
  let open Mv_catalog in
  Schema.make
    ~tables:
      [
        Table_def.make ~name:"t"
          ~columns:
            [
              Column.make "id" Mv_base.Dtype.Int;
              Column.make "k" Mv_base.Dtype.Int;
              Column.make ~nullable:true "y" Mv_base.Dtype.Float;
            ]
          ~primary_key:[ "id" ] ();
      ]
    ~foreign_keys:[]

let check_avg_not_rewritten query_sql =
  let r = Mv_core.Registry.create nullable_schema in
  let name, spjg =
    Mv_sql.Parser.parse_view nullable_schema
      {| create view va with schemabinding as
         select k, count_big(*) as cnt, sum(y) as s from dbo.t group by k |}
  in
  ignore (Mv_core.Registry.add_view r ~name spjg);
  let q = Mv_sql.Parser.parse_query nullable_schema query_sql in
  Alcotest.(check int) "no substitute" 0
    (List.length (Mv_core.Registry.find_substitutes_spjg r q));
  match
    Mv_core.Registry.explain r (Mv_relalg.Analysis.analyze nullable_schema q)
  with
  | [ (_, Mv_core.Registry.Rejected (Mv_core.Reject.Output_not_computable _ as e)) ]
    ->
      let reason = Mv_core.Reject.to_string e in
      Alcotest.(check bool)
        ("the reason names the avg: " ^ reason)
        true
        (contains ~needle:"avg(t.y)" reason)
  | _ -> Alcotest.fail "expected the view rejected as output-not-computable"

let test_avg_nullable_same_grouping () =
  check_avg_not_rewritten "select k, avg(y) as a from t group by k"

let test_avg_nullable_regrouping () =
  check_avg_not_rewritten "select avg(y) as a from t"

let test_agg_query_over_spj_view () =
  (* the view is not aggregated: the substitute groups the view *)
  let view_sql =
    {| create view v_spj with schemabinding as
       select o_custkey, l_quantity, l_extendedprice
       from dbo.lineitem, dbo.orders
       where l_orderkey = o_orderkey |}
  in
  let query_sql =
    {| select o_custkey, sum(l_quantity) as qty, count(*) as n
       from lineitem, orders
       where l_orderkey = o_orderkey
       group by o_custkey |}
  in
  let s = check_matches ~view_sql ~query_sql () in
  Alcotest.(check bool) "regroups" true (Mv_core.Substitute.uses_regrouping s);
  check_equivalent ~query:(parse_q query_sql) s

let test_spj_query_over_agg_view_rejects () =
  let query_sql =
    {| select o_custkey from lineitem, orders where l_orderkey = o_orderkey |}
  in
  match check_rejects ~view_sql:base_view ~query_sql () with
  | Mv_core.Reject.View_more_aggregated -> ()
  | r -> Alcotest.failf "expected more-aggregated, got %s" (Mv_core.Reject.to_string r)

let test_grouping_not_subset_rejects () =
  (* query groups by a column the view does not group by *)
  let query_sql =
    {| select o_orderdate, sum(l_quantity * l_extendedprice) as rev
       from lineitem, orders
       where l_orderkey = o_orderkey
       group by o_orderdate |}
  in
  match check_rejects ~view_sql:base_view ~query_sql () with
  | Mv_core.Reject.Grouping_incompatible _ -> ()
  | r -> Alcotest.failf "expected grouping failure, got %s" (Mv_core.Reject.to_string r)

let test_missing_sum_rejects () =
  (* the view has no sum(l_quantity) column *)
  let query_sql =
    {| select o_custkey, sum(l_quantity) as q
       from lineitem, orders
       where l_orderkey = o_orderkey
       group by o_custkey |}
  in
  match check_rejects ~view_sql:base_view ~query_sql () with
  | Mv_core.Reject.Output_not_computable _ -> ()
  | r -> Alcotest.failf "expected output failure, got %s" (Mv_core.Reject.to_string r)

let test_scalar_aggregate_query () =
  (* empty grouping list: query aggregates everything; the view's groups
     are further aggregated into one *)
  let query_sql =
    {| select sum(l_quantity * l_extendedprice) as total
       from lineitem, orders
       where l_orderkey = o_orderkey
       group by |}
  in
  (* "group by" with an empty list is not valid SQL; express the scalar
     aggregate as an SPJG block directly *)
  ignore query_sql;
  let query =
    Mv_relalg.Spjg.make ~tables:[ "lineitem"; "orders" ]
      ~where:
        [
          Mv_base.Pred.Cmp
            ( Mv_base.Pred.Eq,
              Mv_base.Expr.Col (col "lineitem" "l_orderkey"),
              Mv_base.Expr.Col (col "orders" "o_orderkey") );
        ]
      ~group_by:(Some [])
      ~out:
        [
          Mv_relalg.Spjg.aggregate "total"
            (Mv_relalg.Spjg.Sum
               (Mv_base.Expr.Binop
                  ( Mv_base.Expr.Mul,
                    Mv_base.Expr.Col (col "lineitem" "l_quantity"),
                    Mv_base.Expr.Col (col "lineitem" "l_extendedprice") )));
        ]
  in
  let view = view_of_sql base_view in
  match Mv_core.Matcher.match_spjg schema ~query view with
  | Error r -> Alcotest.failf "expected match, got %s" (Mv_core.Reject.to_string r)
  | Ok s ->
      Alcotest.(check bool) "regroups" true (Mv_core.Substitute.uses_regrouping s);
      check_equivalent ~query s

let test_compensating_pred_on_grouping_column () =
  (* the view has a wider range on the grouping column; compensation must
     land on the grouping output *)
  let view_sql =
    {| create view v_rng with schemabinding as
       select o_custkey, count_big(*) as cnt, sum(l_quantity) as qty
       from dbo.lineitem, dbo.orders
       where l_orderkey = o_orderkey and o_custkey >= 2
       group by o_custkey |}
  in
  let query_sql =
    {| select o_custkey, sum(l_quantity) as qty
       from lineitem, orders
       where l_orderkey = o_orderkey and o_custkey between 5 and 20
       group by o_custkey |}
  in
  let s = check_matches ~view_sql ~query_sql () in
  check_equivalent ~query:(parse_q query_sql) s

let test_compensating_pred_on_nongrouping_rejects () =
  (* compensation on l_quantity is impossible: not in the view output *)
  let view_sql =
    {| create view v_rng2 with schemabinding as
       select o_custkey, count_big(*) as cnt, sum(l_quantity) as qty
       from dbo.lineitem, dbo.orders
       where l_orderkey = o_orderkey
       group by o_custkey |}
  in
  let query_sql =
    {| select o_custkey, sum(l_quantity) as qty
       from lineitem, orders
       where l_orderkey = o_orderkey and l_quantity >= 10
       group by o_custkey |}
  in
  match check_rejects ~view_sql ~query_sql () with
  | Mv_core.Reject.Compensation_not_computable _ -> ()
  | r ->
      Alcotest.failf "expected compensation failure, got %s"
        (Mv_core.Reject.to_string r)

let test_grouping_by_expression () =
  (* group-by lists may contain expressions (section 3.3) *)
  let view_sql =
    {| create view v_gexpr with schemabinding as
       select l_quantity * l_extendedprice as bucket, count_big(*) as cnt,
              sum(l_discount) as disc
       from dbo.lineitem
       group by l_quantity * l_extendedprice |}
  in
  let query_sql =
    {| select l_quantity * l_extendedprice as bucket, sum(l_discount) as d
       from lineitem
       group by l_quantity * l_extendedprice |}
  in
  let s = check_matches ~view_sql ~query_sql () in
  check_equivalent ~query:(parse_q query_sql) s

let test_view_with_extra_tables_and_aggregation () =
  (* both mechanisms at once: extra table elimination + regrouping *)
  let view_sql =
    {| create view v_both with schemabinding as
       select o_custkey, o_orderdate, count_big(*) as cnt,
              sum(l_quantity) as qty
       from dbo.lineitem, dbo.orders, dbo.customer
       where l_orderkey = o_orderkey and o_custkey = c_custkey
       group by o_custkey, o_orderdate |}
  in
  let query_sql =
    {| select o_custkey, sum(l_quantity) as qty
       from lineitem, orders
       where l_orderkey = o_orderkey
       group by o_custkey |}
  in
  let s = check_matches ~view_sql ~query_sql () in
  check_equivalent ~query:(parse_q query_sql) s

let suite =
  [
    ( "aggregation",
      [
        Alcotest.test_case "example 4 inner block" `Quick test_example4_inner_block;
        Alcotest.test_case "rollup to coarser grouping" `Quick
          test_rollup_to_coarser_grouping;
        Alcotest.test_case "count becomes sum of counts" `Quick
          test_count_becomes_sum_of_counts;
        Alcotest.test_case "count maps to count column" `Quick
          test_count_maps_to_count_column;
        Alcotest.test_case "avg with same grouping" `Quick test_avg_same_grouping;
        Alcotest.test_case "avg with regrouping" `Quick test_avg_with_regrouping;
        Alcotest.test_case "avg over nullable, same grouping" `Quick
          test_avg_nullable_same_grouping;
        Alcotest.test_case "avg over nullable, regrouping" `Quick
          test_avg_nullable_regrouping;
        Alcotest.test_case "aggregation query over SPJ view" `Quick
          test_agg_query_over_spj_view;
        Alcotest.test_case "SPJ query rejects aggregated view" `Quick
          test_spj_query_over_agg_view_rejects;
        Alcotest.test_case "grouping not subset rejects" `Quick
          test_grouping_not_subset_rejects;
        Alcotest.test_case "missing sum column rejects" `Quick
          test_missing_sum_rejects;
        Alcotest.test_case "scalar aggregate query" `Quick test_scalar_aggregate_query;
        Alcotest.test_case "compensation on grouping column" `Quick
          test_compensating_pred_on_grouping_column;
        Alcotest.test_case "compensation on non-grouping column rejects" `Quick
          test_compensating_pred_on_nongrouping_rejects;
        Alcotest.test_case "grouping by expression" `Quick test_grouping_by_expression;
        Alcotest.test_case "extra tables + regrouping" `Quick
          test_view_with_extra_tables_and_aggregation;
      ] );
  ]
