(** Execution engine tests: operators against hand-computed results, join
    correctness vs a nested-loop reference, aggregation semantics. *)

open Mv_base
open Helpers
module Spjg = Mv_relalg.Spjg

let db () = Mv_tpch.Datagen.generate ~seed:3 ~scale:1 ()

let test_scan_filter () =
  let db = db () in
  let q = parse_q "select l_orderkey from lineitem where l_quantity >= 25" in
  let r = Mv_engine.Exec.execute db q in
  (* recompute by hand *)
  let tbl = Mv_engine.Database.table_exn db "lineitem" in
  let qi = Mv_engine.Table.col_index_exn tbl "l_quantity" in
  let expected =
    List.length
      (List.filter
         (fun row ->
           match row.(qi) with Value.Int q -> q >= 25 | _ -> false)
         tbl.Mv_engine.Table.rows)
  in
  Alcotest.(check int) "row count" expected (Mv_engine.Relation.cardinality r)

let test_join_vs_nested_loop () =
  let db = db () in
  let q =
    parse_q
      "select l_orderkey, o_custkey from lineitem, orders where l_orderkey = o_orderkey and l_quantity <= 10"
  in
  let r = Mv_engine.Exec.execute db q in
  (* nested-loop reference *)
  let li = Mv_engine.Database.table_exn db "lineitem" in
  let o = Mv_engine.Database.table_exn db "orders" in
  let lio = Mv_engine.Table.col_index_exn li "l_orderkey" in
  let liq = Mv_engine.Table.col_index_exn li "l_quantity" in
  let oo = Mv_engine.Table.col_index_exn o "o_orderkey" in
  let oc = Mv_engine.Table.col_index_exn o "o_custkey" in
  let expected =
    List.concat_map
      (fun lrow ->
        List.filter_map
          (fun orow ->
            if
              Value.equal lrow.(lio) orow.(oo)
              && Value.order lrow.(liq) (Value.Int 10) <= 0
            then Some [| lrow.(lio); orow.(oc) |]
            else None)
          o.Mv_engine.Table.rows)
      li.Mv_engine.Table.rows
  in
  Alcotest.(check bool) "same bag" true
    (Mv_engine.Relation.same_bag r
       { Mv_engine.Relation.cols = r.Mv_engine.Relation.cols; rows = expected })

let test_three_way_join_count () =
  let db = db () in
  let q =
    parse_q
      "select l_orderkey from lineitem, orders, customer where l_orderkey = o_orderkey and o_custkey = c_custkey"
  in
  let r = Mv_engine.Exec.execute db q in
  (* FK integrity means every lineitem row survives *)
  Alcotest.(check int) "cardinality preserved"
    (Mv_engine.Database.row_count db "lineitem")
    (Mv_engine.Relation.cardinality r)

let test_group_by_sums () =
  let db = db () in
  let q =
    parse_q
      "select o_custkey, count(*) as n, sum(o_totalprice) as t from orders group by o_custkey"
  in
  let r = Mv_engine.Exec.execute db q in
  (* total of the per-group counts equals the table size *)
  let ni =
    let rec idx i = function
      | [] -> failwith "no n"
      | c :: rest -> if c = "n" then i else idx (i + 1) rest
    in
    idx 0 r.Mv_engine.Relation.cols
  in
  let total =
    List.fold_left
      (fun acc row ->
        match row.(ni) with Value.Int n -> acc + n | _ -> acc)
      0 r.Mv_engine.Relation.rows
  in
  Alcotest.(check int) "counts add up"
    (Mv_engine.Database.row_count db "orders")
    total

let test_scalar_aggregate_of_empty () =
  let db = db () in
  (* impossible predicate -> empty input; empty grouping still yields one
     row with count 0 and NULL sum *)
  let q =
    Spjg.make ~tables:[ "orders" ]
      ~where:
        [ Pred.Cmp (Pred.Lt, Expr.Col (col "orders" "o_orderkey"), Expr.Const (Value.Int 0)) ]
      ~group_by:(Some [])
      ~out:
        [
          Spjg.aggregate "n" Spjg.Count_star;
          Spjg.aggregate "t" (Spjg.Sum (Expr.Col (col "orders" "o_totalprice")));
        ]
  in
  let r = Mv_engine.Exec.execute db q in
  Alcotest.(check int) "one row" 1 (Mv_engine.Relation.cardinality r);
  match r.Mv_engine.Relation.rows with
  | [ [| n; t |] ] ->
      Alcotest.(check bool) "count 0" true (Value.equal n (Value.Int 0));
      Alcotest.(check bool) "sum null" true (Value.is_null t)
  | _ -> Alcotest.fail "unexpected shape"

let test_grouped_aggregate_of_empty () =
  let db = db () in
  let q =
    parse_q
      "select o_custkey, count(*) as n from orders where o_orderkey < 0 group by o_custkey"
  in
  let r = Mv_engine.Exec.execute db q in
  Alcotest.(check int) "no rows" 0 (Mv_engine.Relation.cardinality r)

let test_materialize_and_query_view () =
  let db = db () in
  let view =
    view_of_sql
      {| create view mv_test with schemabinding as
         select o_custkey, count_big(*) as cnt from dbo.orders group by o_custkey |}
  in
  let tbl = Mv_engine.Exec.materialize db view in
  Alcotest.(check bool) "view has rows" true (Mv_engine.Table.row_count tbl > 0);
  Alcotest.(check int) "row_count recorded"
    (Mv_engine.Table.row_count tbl)
    view.Mv_core.View.row_count;
  (* the view table is queryable through the engine *)
  let r =
    Mv_engine.Exec.execute db
      (Spjg.make ~tables:[ "mv_test" ] ~where:[] ~group_by:None
         ~out:[ Spjg.scalar "cnt" (Expr.Col (col "mv_test" "cnt")) ])
  in
  Alcotest.(check int) "same cardinality" (Mv_engine.Table.row_count tbl)
    (Mv_engine.Relation.cardinality r)

let test_null_join_keys_do_not_match () =
  (* NULL = NULL must not join *)
  let schema =
    Mv_catalog.Schema.make
      ~tables:
        [
          Mv_catalog.Table_def.make ~name:"t1"
            ~columns:
              [
                Mv_catalog.Column.make "a" Dtype.Int;
                Mv_catalog.Column.make ~nullable:true "b" Dtype.Int;
              ]
            ~primary_key:[ "a" ] ();
          Mv_catalog.Table_def.make ~name:"t2"
            ~columns:
              [
                Mv_catalog.Column.make "c" Dtype.Int;
                Mv_catalog.Column.make ~nullable:true "d" Dtype.Int;
              ]
            ~primary_key:[ "c" ] ();
        ]
      ~foreign_keys:[]
  in
  let db = Mv_engine.Database.create schema in
  Mv_engine.Database.insert db "t1" [| Value.Int 1; Value.Null |];
  Mv_engine.Database.insert db "t1" [| Value.Int 2; Value.Int 5 |];
  Mv_engine.Database.insert db "t2" [| Value.Int 1; Value.Null |];
  Mv_engine.Database.insert db "t2" [| Value.Int 2; Value.Int 5 |];
  let q =
    Spjg.make ~tables:[ "t1"; "t2" ]
      ~where:
        [
          Pred.Cmp (Pred.Eq, Expr.Col (col "t1" "b"), Expr.Col (col "t2" "d"));
        ]
      ~group_by:None
      ~out:[ Spjg.scalar "a" (Expr.Col (col "t1" "a")) ]
  in
  let r = Mv_engine.Exec.execute db q in
  Alcotest.(check int) "only the non-null pair" 1
    (Mv_engine.Relation.cardinality r)

let test_same_bag_detects_duplicates () =
  let a = { Mv_engine.Relation.cols = [ "x" ]; rows = [ [| Value.Int 1 |]; [| Value.Int 1 |] ] } in
  let b = { Mv_engine.Relation.cols = [ "x" ]; rows = [ [| Value.Int 1 |] ] } in
  Alcotest.(check bool) "bags differ" false (Mv_engine.Relation.same_bag a b);
  Alcotest.(check bool) "bag equals itself" true (Mv_engine.Relation.same_bag a a)

(* ---- exact keys: floats that share a 6-digit rendering stay apart ---- *)

(* t(id, k, price) and u(id, k, price); price holds whatever values a test
   needs (Int and Float alike), as the executor compares them with
   Value.order. *)
let priced_db ~t_rows ~u_rows =
  let cols =
    [
      Mv_catalog.Column.make "id" Dtype.Int;
      Mv_catalog.Column.make "k" Dtype.Int;
      Mv_catalog.Column.make ~nullable:true "price" Dtype.Float;
    ]
  in
  let schema =
    Mv_catalog.Schema.make
      ~tables:
        [
          Mv_catalog.Table_def.make ~name:"t" ~columns:cols
            ~primary_key:[ "id" ] ();
          Mv_catalog.Table_def.make ~name:"u" ~columns:cols
            ~primary_key:[ "id" ] ();
        ]
      ~foreign_keys:[]
  in
  let db = Mv_engine.Database.create schema in
  List.iter (Mv_engine.Database.insert db "t") t_rows;
  List.iter (Mv_engine.Database.insert db "u") u_rows;
  db

let c_t name = Expr.Col (col "t" name)
let c_u name = Expr.Col (col "u" name)

let priced id price = [| Value.Int id; Value.Int 1; price |]

(* Sorted (price, count) pairs of a grouped result, numbers rendered in
   full. *)
let groups_of (r : Mv_engine.Relation.t) =
  let show v =
    match Value.as_float v with
    | Some f -> Printf.sprintf "%.1f" f
    | None -> Value.to_string v
  in
  List.sort Mv_engine.Relation.row_order r.Mv_engine.Relation.rows
  |> List.map (fun row -> (show row.(0), show row.(1)))

(* SELECT t.price, COUNT( * ) AS n FROM t GROUP BY t.price, through Exec
   and through a hand-built Plan_exec aggregate. *)
let group_by_price db =
  let q =
    Spjg.make ~tables:[ "t" ] ~where:[]
      ~group_by:(Some [ c_t "price" ])
      ~out:
        [
          Spjg.scalar "price" (c_t "price");
          Spjg.aggregate "n" Spjg.Count_star;
        ]
  in
  let leaf =
    Mv_opt.Plan.Leaf
      {
        source =
          Mv_opt.Plan.Computed
            (Spjg.make ~tables:[ "t" ] ~where:[] ~group_by:None
               ~out:[ Spjg.scalar "price" (c_t "price") ]);
        binds = [ ("price", col "t" "price") ];
        est_rows = 2.0;
        est_cost = 1.0;
      }
  in
  let plan =
    Mv_opt.Plan.Aggregate
      {
        input = leaf;
        group_by = [ c_t "price" ];
        out = q.Spjg.out;
        est_rows = 2.0;
        est_cost = 1.0;
      }
  in
  [
    ("exec", Mv_engine.Exec.execute db q);
    ("plan_exec", Mv_opt.Plan_exec.execute db q plan);
  ]

let test_float_group_keys () =
  let db =
    priced_db
      ~t_rows:
        [ priced 1 (Value.Float 1234567.0); priced 2 (Value.Float 1234568.0) ]
      ~u_rows:[]
  in
  List.iter
    (fun (path, r) ->
      Alcotest.(check (list (pair string string)))
        (path ^ ": one group per distinct float")
        [ ("1234567.0", "1.0"); ("1234568.0", "1.0") ]
        (groups_of r))
    (group_by_price db)

let test_null_and_numeric_groups () =
  (* NULLs form one group; Int 1 and Float 1.0 are one key *)
  let db =
    priced_db
      ~t_rows:
        [
          priced 1 Value.Null; priced 2 Value.Null; priced 3 (Value.Int 1);
          priced 4 (Value.Float 1.0); priced 5 (Value.Float 2.0);
        ]
      ~u_rows:[]
  in
  List.iter
    (fun (path, r) ->
      Alcotest.(check (list (pair string string)))
        (path ^ ": NULL, 1 and 2 groups")
        [ ("NULL", "2.0"); ("1.0", "2.0"); ("2.0", "1.0") ]
        (groups_of r))
    (group_by_price db)

(* A hand-built plan joining t and u on (k, price): two scan leaves under
   one join node, so the keys reach the plan executor's join unfiltered. *)
let priced_join_plan =
  let leaf tbl =
    let c name = col tbl name in
    Mv_opt.Plan.Leaf
      {
        source =
          Mv_opt.Plan.Computed
            (Spjg.make ~tables:[ tbl ] ~where:[] ~group_by:None
               ~out:
                 (List.map
                    (fun n -> Spjg.scalar n (Expr.Col (c n)))
                    [ "id"; "k"; "price" ]));
        binds = List.map (fun n -> (n, c n)) [ "id"; "k"; "price" ];
        est_rows = 1.0;
        est_cost = 1.0;
      }
  in
  Mv_opt.Plan.Join
    {
      left = leaf "t";
      right = leaf "u";
      keys = [ (col "t" "k", col "u" "k"); (col "t" "price", col "u" "price") ];
      post = [];
      est_rows = 1.0;
      est_cost = 1.0;
    }

let count_strategy kind =
  Mv_obs.Registry.counter_value Mv_obs.Registry.global
    ("exec.join.strategy." ^ kind)

let test_float_join_keys () =
  (* u's prices 1234500..1234579 all share their first six digits with
     t's; the Int 1234569 must still meet the Float 1234569.0 *)
  let t_rows =
    [
      priced 1 (Value.Float 1234567.0); priced 2 (Value.Float 1234568.0);
      priced 3 (Value.Int 1234569); priced 4 Value.Null;
    ]
  in
  let u_rows =
    List.init 80 (fun i ->
        priced (100 + i) (Value.Float (1234500.0 +. float_of_int i)))
  in
  let q =
    Spjg.make ~tables:[ "t"; "u" ]
      ~where:
        [
          Pred.Cmp (Pred.Eq, c_t "k", c_u "k");
          Pred.Cmp (Pred.Eq, c_t "price", c_u "price");
        ]
      ~group_by:None
      ~out:[ Spjg.scalar "tid" (c_t "id"); Spjg.scalar "uid" (c_u "id") ]
  in
  let expected = [ (1, 167); (2, 168); (3, 169) ] in
  let pairs (r : Mv_engine.Relation.t) =
    List.sort compare
      (List.map
         (fun row ->
           match (row.(0), row.(1)) with
           | Value.Int a, Value.Int b -> (a, b)
           | _ -> Alcotest.fail "non-integer ids")
         r.Mv_engine.Relation.rows)
  in
  let check name ?(index = false) ~strategy run =
    let db = priced_db ~t_rows ~u_rows in
    if index then Mv_engine.Database.declare_index db ~table:"u" ~cols:[ "k" ];
    let before = count_strategy strategy in
    Alcotest.(check (list (pair int int))) (name ^ ": exact pairs") expected
      (pairs (run db));
    Alcotest.(check bool) (name ^ ": took the " ^ strategy ^ " path") true
      (count_strategy strategy > before)
  in
  check "exec hash join" ~strategy:"hash" (fun db ->
      Mv_engine.Exec.execute db q);
  check "exec index nested loop" ~index:true ~strategy:"inlj" (fun db ->
      Mv_engine.Exec.execute db q);
  check "plan_exec hash join" ~strategy:"hash" (fun db ->
      Mv_opt.Plan_exec.execute db q priced_join_plan)

let suite =
  [
    ( "engine",
      [
        Alcotest.test_case "scan + filter" `Quick test_scan_filter;
        Alcotest.test_case "hash join vs nested loop" `Quick test_join_vs_nested_loop;
        Alcotest.test_case "FK joins preserve cardinality" `Quick
          test_three_way_join_count;
        Alcotest.test_case "group by sums" `Quick test_group_by_sums;
        Alcotest.test_case "scalar aggregate of empty input" `Quick
          test_scalar_aggregate_of_empty;
        Alcotest.test_case "grouped aggregate of empty input" `Quick
          test_grouped_aggregate_of_empty;
        Alcotest.test_case "materialize view" `Quick test_materialize_and_query_view;
        Alcotest.test_case "null join keys do not match" `Quick
          test_null_join_keys_do_not_match;
        Alcotest.test_case "same_bag is multiset equality" `Quick
          test_same_bag_detects_duplicates;
        Alcotest.test_case "float group keys stay exact" `Quick
          test_float_group_keys;
        Alcotest.test_case "NULL and Int/Float group keys" `Quick
          test_null_and_numeric_groups;
        Alcotest.test_case "float join keys stay exact" `Quick
          test_float_join_keys;
      ] );
  ]
