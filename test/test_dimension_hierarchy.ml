(** The OLAP dimension-hierarchy claim of the paper's section 6: "if a
    dimension hierarchy is implemented as a set of tables connected by
    foreign keys, the functional dependencies are implied by foreign keys
    and will be exploited." A snowflake schema (sales -> product ->
    category) checks this end to end: a view aggregated at the product
    level answers queries rolled up to the category level, through the
    optimizer's preaggregation alternative and cardinality-preserving FK
    joins. *)

open Mv_base

(* a small snowflake: sales (fact), product, category *)
let schema =
  Mv_catalog.Schema.make
    ~tables:
      [
        Mv_catalog.Table_def.make ~name:"category"
          ~columns:
            [
              Mv_catalog.Column.make "cat_id" Dtype.Int;
              Mv_catalog.Column.make "cat_name" Dtype.Str;
            ]
          ~primary_key:[ "cat_id" ] ();
        Mv_catalog.Table_def.make ~name:"product"
          ~columns:
            [
              Mv_catalog.Column.make "prod_id" Dtype.Int;
              Mv_catalog.Column.make "prod_name" Dtype.Str;
              Mv_catalog.Column.make "prod_cat" Dtype.Int;
            ]
          ~primary_key:[ "prod_id" ] ();
        Mv_catalog.Table_def.make ~name:"sales"
          ~columns:
            [
              Mv_catalog.Column.make "sale_id" Dtype.Int;
              Mv_catalog.Column.make "sale_prod" Dtype.Int;
              Mv_catalog.Column.make "amount" Dtype.Int;
            ]
          ~primary_key:[ "sale_id" ] ();
      ]
    ~foreign_keys:
      [
        Mv_catalog.Foreign_key.make ~from_tbl:"product" ~from_cols:[ "prod_cat" ]
          ~to_tbl:"category" ~to_cols:[ "cat_id" ];
        Mv_catalog.Foreign_key.make ~from_tbl:"sales" ~from_cols:[ "sale_prod" ]
          ~to_tbl:"product" ~to_cols:[ "prod_id" ];
      ]

let db () =
  let db = Mv_engine.Database.create schema in
  let rng = Mv_util.Prng.create 404 in
  Helpers.insert db "category"
    (List.init 4 (fun i ->
         [| Value.Int (i + 1); Value.Str (Printf.sprintf "cat-%d" (i + 1)) |]));
  Helpers.insert db "product"
    (List.init 20 (fun i ->
         [|
           Value.Int (i + 1);
           Value.Str (Printf.sprintf "prod-%d" (i + 1));
           Value.Int (1 + Mv_util.Prng.int rng 4);
         |]));
  Helpers.insert db "sales"
    (List.init 500 (fun i ->
         [|
           Value.Int (i + 1);
           Value.Int (1 + Mv_util.Prng.int rng 20);
           Value.Int (10 + Mv_util.Prng.int rng 990);
         |]));
  db

(* revenue per product: the "lower level" of the hierarchy *)
let product_level_view =
  {| create view rev_by_product with schemabinding as
     select sale_prod, count_big(*) as cnt, sum(amount) as revenue
     from dbo.sales
     group by sale_prod |}

let category_level_query =
  {| select cat_name, sum(amount) as revenue
     from sales, product, category
     where sale_prod = prod_id and prod_cat = cat_id
     group by cat_name |}

let test_category_rollup_uses_product_view () =
  let db = db () in
  let stats = Mv_engine.Database.stats db in
  let registry = Mv_core.Registry.create schema in
  let name, vdef = Mv_sql.Parser.parse_view schema product_level_view in
  let view =
    Mv_core.Registry.add_view registry ~name
      ~row_count:(Mv_opt.Cost.estimate_view_rows stats vdef)
      vdef
  in
  ignore (Mv_engine.Exec.materialize db view);
  let q = Mv_sql.Parser.parse_query schema category_level_query in
  let r = Mv_opt.Optimizer.optimize registry stats q in
  Alcotest.(check bool) "rollup goes through the product-level view" true
    r.Mv_opt.Optimizer.used_views;
  let direct = Mv_engine.Exec.execute db q in
  let via = Mv_opt.Plan_exec.execute db q r.Mv_opt.Optimizer.plan in
  Alcotest.(check int) "four categories" 4 (Mv_engine.Relation.cardinality direct);
  Alcotest.(check bool) "rollup is exact" true
    (Mv_engine.Relation.same_bag direct via)

let test_hierarchy_view_with_dimensions_joined () =
  (* the view itself carries the whole hierarchy (extra tables for a
     sales-only query): both FK hops must be eliminated *)
  let db = db () in
  let view_sql =
    {| create view sales_star with schemabinding as
       select sale_id, amount, prod_name, cat_name
       from dbo.sales, dbo.product, dbo.category
       where sale_prod = prod_id and prod_cat = cat_id |}
  in
  let query_sql = {| select sale_id, amount from sales |} in
  let name, vdef = Mv_sql.Parser.parse_view schema view_sql in
  let view = Mv_core.View.create schema ~name vdef in
  (* the hub collapses all the way down the hierarchy *)
  Alcotest.(check (list string))
    "hub is the fact table" [ "sales" ]
    (Mv_util.Sset.to_list view.Mv_core.View.hub);
  let q = Mv_sql.Parser.parse_query schema query_sql in
  match Mv_core.Matcher.match_spjg schema ~query:q view with
  | Error r -> Alcotest.failf "expected match: %s" (Mv_core.Reject.to_string r)
  | Ok s ->
      ignore (Mv_engine.Exec.materialize db view);
      let direct = Mv_engine.Exec.execute db q in
      let via = Mv_engine.Exec.execute_substitute db s in
      Alcotest.(check bool) "equivalent" true
        (Mv_engine.Relation.same_bag direct via)

let test_mid_level_rollup () =
  (* view at the (product, category) level answers a category-level
     query directly through the grouping-subset test *)
  let db = db () in
  let view_sql =
    {| create view rev_by_prod_cat with schemabinding as
       select prod_id, cat_name, count_big(*) as cnt, sum(amount) as revenue
       from dbo.sales, dbo.product, dbo.category
       where sale_prod = prod_id and prod_cat = cat_id
       group by prod_id, cat_name |}
  in
  let query_sql =
    {| select cat_name, sum(amount) as revenue
       from sales, product, category
       where sale_prod = prod_id and prod_cat = cat_id
       group by cat_name |}
  in
  let name, vdef = Mv_sql.Parser.parse_view schema view_sql in
  let view = Mv_core.View.create schema ~name vdef in
  let q = Mv_sql.Parser.parse_query schema query_sql in
  match Mv_core.Matcher.match_spjg schema ~query:q view with
  | Error r -> Alcotest.failf "expected match: %s" (Mv_core.Reject.to_string r)
  | Ok s ->
      Alcotest.(check bool) "regroups to the coarser level" true
        (Mv_core.Substitute.uses_regrouping s);
      ignore (Mv_engine.Exec.materialize db view);
      let direct = Mv_engine.Exec.execute db q in
      let via = Mv_engine.Exec.execute_substitute db s in
      Alcotest.(check bool) "equivalent" true
        (Mv_engine.Relation.same_bag direct via)

let suite =
  [
    ( "dimension-hierarchy",
      [
        Alcotest.test_case "category rollup via product-level view" `Quick
          test_category_rollup_uses_product_view;
        Alcotest.test_case "hierarchy joined into the view collapses" `Quick
          test_hierarchy_view_with_dimensions_joined;
        Alcotest.test_case "mid-level view regroups to coarser level" `Quick
          test_mid_level_rollup;
      ] );
  ]
