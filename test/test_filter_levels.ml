(** One test per filter-tree level (sections 4.2.1-4.2.8): for each
    partitioning condition, a view that violates exactly that condition
    must be pruned — and, for sanity, must also fail full matching, so the
    pruning is sound. *)

open Helpers
module A = Mv_relalg.Analysis

(* The view's candidate set, and a "No Filter" registry over the same view
   for the soundness check. *)
let candidates_for view_sql query_sql =
  let name, spjg = parse_v view_sql in
  let registry use_filter =
    let r = Mv_core.Registry.create ~use_filter schema in
    ignore (Mv_core.Registry.add_view r ~name spjg);
    r
  in
  let qa = A.analyze schema (parse_q query_sql) in
  (Mv_core.Registry.candidates (registry true) qa, registry false, qa)

let check_pruned ~level view_sql query_sql =
  let cands, linear, qa = candidates_for view_sql query_sql in
  Alcotest.(check int) (level ^ " level prunes the view") 0 (List.length cands);
  (* soundness: the matcher agrees *)
  Alcotest.(check int) "full matching also rejects" 0
    (List.length (Mv_core.Registry.find_substitutes linear qa))

let check_survives view_sql query_sql =
  let cands, _, _ = candidates_for view_sql query_sql in
  Alcotest.(check int) "view is a candidate" 1 (List.length cands)

let test_source_tables_level () =
  check_pruned ~level:"source-tables"
    {| create view fl_src with schemabinding as
       select l_orderkey, l_quantity from dbo.lineitem |}
    {| select l_orderkey from lineitem, orders where l_orderkey = o_orderkey |}

let test_hub_level () =
  (* orders carries a non-FK range predicate, pinning it into the hub; a
     query on lineitem alone can then never use the view *)
  check_pruned ~level:"hub"
    {| create view fl_hub with schemabinding as
       select l_orderkey, l_quantity from dbo.lineitem, dbo.orders
       where l_orderkey = o_orderkey and o_totalprice >= 100000 |}
    {| select l_orderkey, l_quantity from lineitem |};
  (* the same view without the pinning predicate survives the hub level *)
  check_survives
    {| create view fl_hub2 with schemabinding as
       select l_orderkey, l_quantity from dbo.lineitem, dbo.orders
       where l_orderkey = o_orderkey |}
    {| select l_orderkey, l_quantity from lineitem |}

let test_output_exprs_level () =
  (* the query needs l_quantity * l_extendedprice; the view has a
     different expression and keeps the source columns hidden *)
  check_pruned ~level:"output-expressions"
    {| create view fl_oexpr with schemabinding as
       select l_orderkey, l_quantity + l_extendedprice as s from dbo.lineitem |}
    {| select l_quantity * l_extendedprice as p from lineitem |}

let test_output_cols_level () =
  check_pruned ~level:"output-columns"
    {| create view fl_ocol with schemabinding as
       select l_orderkey from dbo.lineitem |}
    {| select l_partkey from lineitem |}

let test_residual_level () =
  check_pruned ~level:"residual-predicates"
    {| create view fl_res with schemabinding as
       select l_orderkey, l_comment from dbo.lineitem
       where l_comment like '%steel%' |}
    {| select l_orderkey from lineitem |}

let test_range_level_weak () =
  (* the view constrains l_quantity (a trivial class): its reduced range
     list is non-empty while the query constrains nothing *)
  check_pruned ~level:"range-constrained-columns"
    {| create view fl_rng with schemabinding as
       select l_orderkey, l_quantity from dbo.lineitem
       where l_quantity >= 10 |}
    {| select l_orderkey from lineitem |}

let test_range_level_strong () =
  (* the view's constrained column sits in a NON-trivial view class, so the
     reduced (weak) list is empty and only the strong per-candidate check
     can prune it *)
  let view_sql =
    {| create view fl_rng2 with schemabinding as
       select l_orderkey, p_partkey from dbo.lineitem, dbo.part
       where l_partkey = p_partkey and p_partkey >= 150 |}
  in
  let query_sql =
    {| select l_orderkey, p_partkey from lineitem, part
       where l_partkey = p_partkey |}
  in
  let cands, linear, qa = candidates_for view_sql query_sql in
  Alcotest.(check int) "strong range check prunes" 0 (List.length cands);
  Alcotest.(check int) "matcher agrees" 0
    (List.length (Mv_core.Registry.find_substitutes linear qa))

let test_grouping_cols_level () =
  (* aggregation query grouped on a column outside the view's grouping *)
  check_pruned ~level:"grouping-columns"
    {| create view fl_gc with schemabinding as
       select o_custkey, count_big(*) as cnt from dbo.orders
       group by o_custkey |}
    {| select o_orderdate, count(*) as n from orders group by o_orderdate |}

let test_grouping_exprs_level () =
  check_pruned ~level:"grouping-expressions"
    {| create view fl_ge with schemabinding as
       select o_totalprice + o_shippriority as bucket, count_big(*) as cnt
       from dbo.orders
       group by o_totalprice + o_shippriority |}
    {| select o_totalprice * o_shippriority as bucket, count(*) as n
       from orders group by o_totalprice * o_shippriority |}

let test_extended_output_survives () =
  (* example 6 of the paper: the query output routes through an
     equivalence class, so the extended output list must keep the view *)
  check_survives
    {| create view fl_ext with schemabinding as
       select p_partkey, l_quantity from dbo.lineitem, dbo.part
       where l_partkey = p_partkey |}
    {| select l_partkey, l_quantity from lineitem, part
       where l_partkey = p_partkey |}

let test_agg_query_sees_spj_views () =
  (* SPJ views sit in their own branch but still serve aggregation
     queries *)
  check_survives
    {| create view fl_spjv with schemabinding as
       select o_custkey, o_totalprice from dbo.orders |}
    {| select o_custkey, sum(o_totalprice) as t from orders
       group by o_custkey |}

let suite =
  [
    ( "filter-levels",
      [
        Alcotest.test_case "source tables (4.2.1)" `Quick test_source_tables_level;
        Alcotest.test_case "hubs (4.2.2)" `Quick test_hub_level;
        Alcotest.test_case "output expressions (4.2.7)" `Quick
          test_output_exprs_level;
        Alcotest.test_case "output columns (4.2.3)" `Quick test_output_cols_level;
        Alcotest.test_case "residual predicates (4.2.6)" `Quick test_residual_level;
        Alcotest.test_case "range constraints, weak (4.2.5)" `Quick
          test_range_level_weak;
        Alcotest.test_case "range constraints, strong (4.2.5)" `Quick
          test_range_level_strong;
        Alcotest.test_case "grouping columns (4.2.4)" `Quick
          test_grouping_cols_level;
        Alcotest.test_case "grouping expressions (4.2.8)" `Quick
          test_grouping_exprs_level;
        Alcotest.test_case "extended output list keeps example 6" `Quick
          test_extended_output_survives;
        Alcotest.test_case "SPJ views serve aggregation queries" `Quick
          test_agg_query_sees_spj_views;
      ] );
  ]
