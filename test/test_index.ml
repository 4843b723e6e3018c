(** Secondary indexes on tables and materialized views: correctness of the
    index structure against brute force, index-accelerated execution
    returning identical results, and the optimizer considering view indexes
    automatically (Example 1's v1_sidx). *)

open Mv_base
open Helpers
module Index = Mv_engine.Index
module Interval = Mv_relalg.Interval

let db () = Mv_tpch.Datagen.generate ~seed:77 ~scale:2 ()

(* index range scans agree with a naive filter *)
let range_scan_prop =
  let database = lazy (db ()) in
  QCheck.Test.make ~name:"index: range scan agrees with naive filter"
    ~count:200
    QCheck.(pair (int_range 0 60) (int_range 0 60))
    (fun (a, b) ->
      let db = Lazy.force database in
      let tbl = Mv_engine.Database.table_exn db "lineitem" in
      let ix = Index.build tbl [ "l_quantity"; "l_orderkey" ] in
      let lo = min a b and hi = max a b in
      let interval =
        { Interval.lo = Interval.Incl (Value.Int lo);
          Interval.hi = Interval.Excl (Value.Int hi) }
      in
      let qi = Mv_engine.Table.col_index_exn tbl "l_quantity" in
      let naive =
        List.filter
          (fun row -> Interval.mem row.(qi) interval)
          tbl.Mv_engine.Table.rows
      in
      let got = Index.range_scan ix interval in
      List.length got = List.length naive
      && List.sort compare got = List.sort compare naive)

let prefix_lookup_prop =
  let database = lazy (db ()) in
  QCheck.Test.make ~name:"index: prefix lookup agrees with naive filter"
    ~count:200
    QCheck.(int_range 1 50)
    (fun q ->
      let db = Lazy.force database in
      let tbl = Mv_engine.Database.table_exn db "lineitem" in
      let ix = Index.build tbl [ "l_quantity"; "l_orderkey" ] in
      let qi = Mv_engine.Table.col_index_exn tbl "l_quantity" in
      let naive =
        List.filter
          (fun row -> Value.equal row.(qi) (Value.Int q))
          tbl.Mv_engine.Table.rows
      in
      let got = Index.prefix_lookup ix [ Value.Int q ] in
      List.sort compare got = List.sort compare naive)

let test_usable_for () =
  let db = db () in
  let tbl = Mv_engine.Database.table_exn db "lineitem" in
  let ix = Index.build tbl [ "l_quantity"; "l_orderkey" ] in
  Alcotest.(check bool) "prefix 1" true
    (Index.usable_for ix ~eq_cols:[ "l_quantity" ] ~range_cols:[] = Some (`Prefix 1));
  Alcotest.(check bool) "prefix 2" true
    (Index.usable_for ix ~eq_cols:[ "l_orderkey"; "l_quantity" ] ~range_cols:[]
     = Some (`Prefix 2));
  Alcotest.(check bool) "range on lead" true
    (Index.usable_for ix ~eq_cols:[] ~range_cols:[ "l_quantity" ] = Some `Range);
  Alcotest.(check bool) "nothing on second col only" true
    (Index.usable_for ix ~eq_cols:[ "l_orderkey" ] ~range_cols:[] = None)

let test_indexed_execution_equivalent () =
  (* the same query, with and without a declared index, returns the same
     bag *)
  let db1 = db () in
  let db2 = db () in
  Mv_engine.Database.declare_index db2 ~table:"lineitem"
    ~cols:[ "l_quantity" ];
  let q =
    parse_q
      "select l_orderkey, l_extendedprice from lineitem where l_quantity \
       between 10 and 20 and l_discount >= 3"
  in
  let r1 = Mv_engine.Exec.execute db1 q in
  let r2 = Mv_engine.Exec.execute db2 q in
  Alcotest.(check bool) "same results" true (Mv_engine.Relation.same_bag r1 r2);
  Alcotest.(check bool) "nonempty" true (Mv_engine.Relation.cardinality r1 > 0)

let test_index_invalidated_on_insert () =
  let db = db () in
  Mv_engine.Database.declare_index db ~table:"orders" ~cols:[ "o_custkey" ];
  let q = parse_q "select o_orderkey from orders where o_custkey = 1" in
  let before = Mv_engine.Relation.cardinality (Mv_engine.Exec.execute db q) in
  (* insert a new row for customer 1; the stale index must not hide it *)
  Helpers.insert db "orders"
    [
      [|
        Value.Int 999999; Value.Int 1; Value.Str "O"; Value.Int 100;
        Value.Date 9000; Value.Str "1-URGENT"; Value.Str "Clerk#1"; Value.Int 0;
        Value.Str "x";
      |];
    ];
  let after = Mv_engine.Relation.cardinality (Mv_engine.Exec.execute db q) in
  Alcotest.(check int) "insert visible" (before + 1) after

let example1_view_sql =
  (* the paper's Example 1 *)
  {| create view v1 with schemabinding as
     select p_partkey, p_name, p_retailprice, count_big(*) as cnt,
            sum(l_extendedprice * l_quantity) as gross_revenue
     from dbo.lineitem, dbo.part
     where p_partkey <= 60 and p_name like '%a%' and p_partkey = l_partkey
     group by p_partkey, p_name, p_retailprice |}

let test_view_with_secondary_index () =
  let db = db () in
  let registry = Mv_core.Registry.create schema in
  let name, vdef = parse_v example1_view_sql in
  let view =
    Mv_core.Registry.add_view registry ~name
      ~indexes:[ [ "gross_revenue"; "p_name" ]; [ "p_partkey" ] ]
      vdef
  in
  let tbl = Mv_engine.Exec.materialize db view in
  Alcotest.(check bool) "materialized" true (Mv_engine.Table.row_count tbl > 0);
  (* the index declarations reached the database *)
  Alcotest.(check int) "two indexes declared" 2
    (List.length (Mv_engine.Database.declared_indexes db "v1"));
  (* a query with an equality compensation on p_partkey still returns the
     right answer through the index path *)
  let q =
    parse_q
      {| select p_name, sum(l_extendedprice * l_quantity) as rev
         from lineitem, part
         where p_partkey = l_partkey and p_partkey = 30 and p_name like '%a%'
         group by p_name |}
  in
  match Mv_core.Registry.find_substitutes_spjg registry q with
  | [] -> Alcotest.fail "expected a substitute"
  | s :: _ ->
      let direct = Mv_engine.Exec.execute db q in
      let via = Mv_engine.Exec.execute_substitute db s in
      Alcotest.(check bool) "equivalent via indexed view" true
        (Mv_engine.Relation.same_bag direct via)

(* Re-materializing a view registers a new table under its name: an
   index built over the previous contents must not serve the new ones.
   The view loses one group (every lineitem row of one of its parts goes);
   an equality on the indexed column then reads through the index, and
   must agree with the naive oracle, which reads the table's rows. *)
let test_rematerialized_view_index () =
  let db = db () in
  let registry = Mv_core.Registry.create schema in
  let name, vdef = parse_v example1_view_sql in
  let view =
    Mv_core.Registry.add_view registry ~name ~indexes:[ [ "p_partkey" ] ] vdef
  in
  let tbl = Mv_engine.Exec.materialize db view in
  let part =
    match tbl.Mv_engine.Table.rows with
    | row :: _ -> row.(Mv_engine.Table.col_index_exn tbl "p_partkey")
    | [] -> Alcotest.fail "the view holds no group"
  in
  let col c = Expr.Col (Col.make "v1" c) in
  let q =
    Mv_relalg.Spjg.make ~tables:[ "v1" ]
      ~where:[ Pred.Cmp (Pred.Eq, col "p_partkey", Expr.Const part) ]
      ~group_by:None
      ~out:[ Mv_relalg.Spjg.scalar "cnt" (col "cnt") ]
  in
  (* the first read builds the index over the first contents *)
  Alcotest.(check int) "the group is there" 1
    (Mv_engine.Relation.cardinality (Mv_engine.Exec.execute db q));
  let li = Mv_engine.Database.table_exn db "lineitem" in
  let pk = Mv_engine.Table.col_index_exn li "l_partkey" in
  Mv_engine.Database.write db
    [
      ( "lineitem",
        {
          Mv_engine.Database.ins = [];
          del =
            List.filter
              (fun row -> Value.equal row.(pk) part)
              li.Mv_engine.Table.rows;
        } );
    ];
  ignore (Mv_engine.Exec.materialize db view);
  Alcotest.(check int) "the group is gone" 0
    (Mv_engine.Relation.cardinality (Naive.execute db q));
  Alcotest.(check bool) "the index serves the new contents" true
    (Mv_engine.Relation.same_bag (Mv_engine.Exec.execute db q)
       (Naive.execute db q))

let test_optimizer_prefers_indexed_view () =
  let stats = Mv_tpch.Datagen.synthetic_stats () in
  let name, vdef = parse_v example1_view_sql in
  let rows = Mv_opt.Cost.estimate_view_rows stats vdef in
  let query =
    parse_q
      {| select p_name, sum(l_extendedprice * l_quantity) as rev
         from lineitem, part
         where p_partkey = l_partkey and p_partkey = 30 and p_name like '%a%'
         group by p_name |}
  in
  let cost_with indexes =
    let registry = Mv_core.Registry.create schema in
    ignore
      (Mv_core.Registry.add_view registry ~name ~row_count:rows ~indexes vdef);
    (Mv_opt.Optimizer.optimize registry stats query).Mv_opt.Optimizer.cost
  in
  let plain = cost_with [] in
  let indexed = cost_with [ [ "p_partkey" ] ] in
  Alcotest.(check bool)
    (Printf.sprintf "indexed view costed cheaper (%.0f < %.0f)" indexed plain)
    true (indexed < plain)

let test_bad_index_rejected () =
  let _, vdef = parse_v example1_view_sql in
  Alcotest.(check bool) "non-output index column rejected" true
    (try
       ignore
         (Mv_core.View.create schema ~name:"v1x"
            ~indexes:[ [ "no_such_col" ] ]
            vdef);
       false
     with Mv_core.View.Rejected _ -> true)

let suite =
  [
    ( "index",
      [
        Helpers.qtest range_scan_prop;
        Helpers.qtest prefix_lookup_prop;
        Alcotest.test_case "usable_for" `Quick test_usable_for;
        Alcotest.test_case "indexed execution equivalent" `Quick
          test_indexed_execution_equivalent;
        Alcotest.test_case "index invalidated on insert" `Quick
          test_index_invalidated_on_insert;
        Alcotest.test_case "view with secondary index (Example 1)" `Quick
          test_view_with_secondary_index;
        Alcotest.test_case "re-materialized view: no stale index" `Quick
          test_rematerialized_view_index;
        Alcotest.test_case "optimizer prefers indexed view" `Quick
          test_optimizer_prefers_indexed_view;
        Alcotest.test_case "bad index column rejected" `Quick
          test_bad_index_rejected;
      ] );
  ]
