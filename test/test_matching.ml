(** Tests of the core SPJ view-matching pipeline: the paper's Example 2
    plus targeted accept/reject cases for each subsumption test. *)

open Helpers

(* The view/query pair of the paper's Example 2 (section 3.1.2). *)
let example2_view =
  {| create view v2 with schemabinding as
     select l_orderkey, o_custkey, l_partkey, l_quantity, l_extendedprice,
            o_orderdate, l_shipdate, p_name
     from dbo.lineitem, dbo.orders, dbo.part
     where l_orderkey = o_orderkey
       and l_partkey = p_partkey
       and p_partkey >= 150
       and o_custkey >= 50 and o_custkey <= 500
       and p_name like '%abc%' |}

let example2_query =
  {| select l_orderkey, o_custkey
     from lineitem, orders, part
     where l_orderkey = o_orderkey
       and l_partkey = p_partkey
       and o_orderdate = l_shipdate
       and l_partkey >= 150 and l_partkey <= 160
       and o_custkey = 123
       and p_name like '%abc%'
       and l_quantity * l_extendedprice > 100 |}

let test_example2 () =
  let s =
    check_matches ~view_sql:example2_view ~query_sql:example2_query ()
  in
  (* the worked example needs exactly four compensating predicates:
     o_orderdate = l_shipdate, partkey <= 160, o_custkey = 123, and the
     quantity*price residual *)
  Alcotest.(check int)
    "four compensating predicates" 4
    (List.length s.Mv_core.Substitute.block.Mv_relalg.Spjg.where);
  (* and the rewrite must be semantically equivalent *)
  check_equivalent ~query:(parse_q example2_query) s

let test_example2_rejects_without_upper_bound () =
  (* remove o_custkey's compensating column from the view output: the
     range compensation (o_custkey = 123) becomes inexpressible *)
  let view_sql =
    {| create view v2b with schemabinding as
       select l_orderkey, l_partkey, l_quantity, l_extendedprice,
              o_orderdate, l_shipdate, p_name
       from dbo.lineitem, dbo.orders, dbo.part
       where l_orderkey = o_orderkey
         and l_partkey = p_partkey
         and p_partkey >= 150
         and o_custkey >= 50 and o_custkey <= 500
         and p_name like '%abc%' |}
  in
  match check_rejects ~view_sql ~query_sql:example2_query () with
  | Mv_core.Reject.Compensation_not_computable _ -> ()
  | r ->
      Alcotest.failf "expected compensation failure, got %s"
        (Mv_core.Reject.to_string r)

let test_view_range_too_narrow () =
  (* view keeps p_partkey >= 150 but the query wants >= 100 *)
  let query_sql =
    {| select l_orderkey from lineitem, orders, part
       where l_orderkey = o_orderkey and l_partkey = p_partkey
         and l_partkey >= 100
         and o_custkey >= 50 and o_custkey <= 500
         and p_name like '%abc%' |}
  in
  (match check_rejects ~view_sql:example2_view ~query_sql () with
  | Mv_core.Reject.Range_subsumption_failed _ -> ()
  | r -> Alcotest.failf "expected range failure, got %s" (Mv_core.Reject.to_string r));
  (* two views that overlap on 20..25 and together span 5..45 each miss
     part of the query's range; only the view over the whole table
     matches *)
  let r = Mv_core.Registry.create schema in
  List.iter
    (fun sql ->
      let name, spjg = parse_v sql in
      ignore (Mv_core.Registry.add_view r ~name spjg))
    [
      {| create view rn_low with schemabinding as
         select l_orderkey, l_quantity from dbo.lineitem
         where l_quantity <= 25 |};
      {| create view rn_high with schemabinding as
         select l_orderkey, l_quantity from dbo.lineitem
         where l_quantity >= 20 |};
    ];
  let q =
    parse_q
      {| select l_orderkey, l_quantity from lineitem
         where l_quantity between 5 and 45 |}
  in
  Alcotest.(check int) "no single view covers 5..45" 0
    (List.length (Mv_core.Registry.find_substitutes_spjg r q));
  let name, spjg =
    parse_v
      {| create view rn_full with schemabinding as
         select l_orderkey, l_quantity from dbo.lineitem |}
  in
  ignore (Mv_core.Registry.add_view r ~name spjg);
  match Mv_core.Registry.find_substitutes_spjg r q with
  | [ s ] ->
      Alcotest.(check string) "the whole-table view" "rn_full"
        s.Mv_core.Substitute.view.Mv_core.View.name;
      check_equivalent ~query:q s
  | subs -> Alcotest.failf "expected one substitute, got %d" (List.length subs)

let test_view_extra_residual () =
  (* view filters on p_name but the query does not: rows are missing *)
  let query_sql =
    {| select l_orderkey from lineitem, orders, part
       where l_orderkey = o_orderkey and l_partkey = p_partkey
         and l_partkey >= 150 and l_partkey <= 160
         and o_custkey >= 50 and o_custkey <= 500 |}
  in
  match check_rejects ~view_sql:example2_view ~query_sql () with
  | Mv_core.Reject.Residual_subsumption_failed _ -> ()
  | r ->
      Alcotest.failf "expected residual failure, got %s"
        (Mv_core.Reject.to_string r)

let test_view_extra_equijoin () =
  (* view equates l_shipdate with l_commitdate; query does not *)
  let view_sql =
    {| create view v_eq with schemabinding as
       select l_orderkey, l_partkey from dbo.lineitem
       where l_shipdate = l_commitdate |}
  in
  let query_sql = {| select l_orderkey from lineitem where l_partkey >= 5 |} in
  match check_rejects ~view_sql ~query_sql () with
  | Mv_core.Reject.Equijoin_subsumption_failed -> ()
  | r ->
      Alcotest.failf "expected equijoin failure, got %s"
        (Mv_core.Reject.to_string r)

let test_equijoin_transitivity () =
  (* view: A=B and B=C; query: A=C and C=B — logically equal classes
     (section 3.1.2's transitivity discussion) *)
  let view_sql =
    {| create view v_tr with schemabinding as
       select l_orderkey, l_partkey, l_suppkey, l_quantity
       from dbo.lineitem
       where l_orderkey = l_partkey and l_partkey = l_suppkey |}
  in
  let query_sql =
    {| select l_quantity from lineitem
       where l_orderkey = l_suppkey and l_suppkey = l_partkey |}
  in
  let s = check_matches ~view_sql ~query_sql () in
  check_equivalent ~query:(parse_q query_sql) s

let test_missing_output_column () =
  let view_sql =
    {| create view v_out with schemabinding as
       select l_orderkey from dbo.lineitem where l_quantity >= 10 |}
  in
  let query_sql =
    {| select l_partkey from lineitem where l_quantity >= 10 |}
  in
  match check_rejects ~view_sql ~query_sql () with
  | Mv_core.Reject.Output_not_computable _ -> ()
  | r -> Alcotest.failf "expected output failure, got %s" (Mv_core.Reject.to_string r)

let test_output_via_equivalence () =
  (* query output l_partkey is not a view output, but p_partkey is and the
     query equates them (section 3.1.4 / example 6) *)
  let view_sql =
    {| create view v_out2 with schemabinding as
       select p_partkey, l_quantity from dbo.lineitem, dbo.part
       where l_partkey = p_partkey |}
  in
  let query_sql =
    {| select l_partkey, l_quantity from lineitem, part
       where l_partkey = p_partkey |}
  in
  let s = check_matches ~view_sql ~query_sql () in
  check_equivalent ~query:(parse_q query_sql) s

let test_computed_output_expression () =
  (* exact match of a computed output expression via templates *)
  let view_sql =
    {| create view v_rev with schemabinding as
       select l_orderkey, l_quantity * l_extendedprice as gross
       from dbo.lineitem where l_quantity >= 5 |}
  in
  let query_sql =
    {| select l_quantity * l_extendedprice as rev from lineitem
       where l_quantity >= 5 and l_orderkey <= 40 |}
  in
  let s = check_matches ~view_sql ~query_sql () in
  check_equivalent ~query:(parse_q query_sql) s

let test_compute_output_from_source_columns () =
  (* the view lacks the expression but outputs its source columns *)
  let view_sql =
    {| create view v_src with schemabinding as
       select l_orderkey, l_quantity, l_extendedprice
       from dbo.lineitem where l_quantity >= 5 |}
  in
  let query_sql =
    {| select l_quantity * l_extendedprice as rev from lineitem
       where l_quantity >= 5 |}
  in
  let s = check_matches ~view_sql ~query_sql () in
  check_equivalent ~query:(parse_q query_sql) s

let test_range_point_compensation () =
  (* query equates a column to a constant inside the view's range *)
  let view_sql =
    {| create view v_pt with schemabinding as
       select l_orderkey, l_quantity from dbo.lineitem
       where l_quantity >= 1 |}
  in
  let query_sql =
    {| select l_orderkey from lineitem where l_quantity = 25 |}
  in
  let s = check_matches ~view_sql ~query_sql () in
  check_equivalent ~query:(parse_q query_sql) s

let test_same_predicates_no_compensation () =
  let view_sql =
    {| create view v_id with schemabinding as
       select l_orderkey, l_quantity from dbo.lineitem
       where l_quantity >= 10 and l_quantity <= 20 |}
  in
  let query_sql =
    {| select l_orderkey, l_quantity from lineitem
       where l_quantity between 10 and 20 |}
  in
  let s = check_matches ~view_sql ~query_sql () in
  Alcotest.(check int)
    "no compensating predicates" 0
    (List.length s.Mv_core.Substitute.block.Mv_relalg.Spjg.where);
  check_equivalent ~query:(parse_q query_sql) s

let suite =
  [
    ( "matching-spj",
      [
        Alcotest.test_case "paper example 2 end-to-end" `Quick test_example2;
        Alcotest.test_case "reject when compensation inexpressible" `Quick
          test_example2_rejects_without_upper_bound;
        Alcotest.test_case "reject when view range too narrow" `Quick
          test_view_range_too_narrow;
        Alcotest.test_case "reject when view has extra residual" `Quick
          test_view_extra_residual;
        Alcotest.test_case "reject when view has extra equijoin" `Quick
          test_view_extra_equijoin;
        Alcotest.test_case "equijoin transitivity via classes" `Quick
          test_equijoin_transitivity;
        Alcotest.test_case "reject missing output column" `Quick
          test_missing_output_column;
        Alcotest.test_case "output routed via equivalence class" `Quick
          test_output_via_equivalence;
        Alcotest.test_case "computed output matched by template" `Quick
          test_computed_output_expression;
        Alcotest.test_case "output computed from source columns" `Quick
          test_compute_output_from_source_columns;
        Alcotest.test_case "point range compensation" `Quick
          test_range_point_compensation;
        Alcotest.test_case "identical predicates need no compensation" `Quick
          test_same_predicates_no_compensation;
      ] );
  ]
