(** The extensions beyond the paper's prototype, end to end:

    1. Example 1's indexed view, with a secondary index the cost model
       picks up automatically;
    2. a base-table backjoin restoring a column the view lacks (section 7).

    Run with: dune exec examples/advanced_rewrites.exe *)

let schema = Mv_tpch.Schema.schema

let () =
  let db = Mv_tpch.Datagen.generate ~seed:29 ~scale:2 () in
  let stats = Mv_engine.Database.stats db in

  (* ---- 1. Example 1: an indexed view ---- *)
  print_endline "== 1. Example 1's indexed view ==";
  let registry = Mv_core.Registry.create schema in
  let name, v1 =
    Mv_sql.Parser.parse_view schema
      {| create view v1 with schemabinding as
         select p_partkey, p_name, p_retailprice, count_big(*) as cnt,
                sum(l_extendedprice * l_quantity) as gross_revenue
         from dbo.lineitem, dbo.part
         where p_partkey <= 70 and p_name like '%a%'
           and p_partkey = l_partkey
         group by p_partkey, p_name, p_retailprice |}
  in
  let view =
    Mv_core.Registry.add_view registry ~name
      ~row_count:(Mv_opt.Cost.estimate_view_rows stats v1)
      ~indexes:[ [ "gross_revenue"; "p_name" ]; [ "p_partkey" ] ]
      v1
  in
  ignore (Mv_engine.Exec.materialize db view);
  Printf.printf
    "view v1 materialized with %d rows and indexes on (gross_revenue, \
     p_name) and (p_partkey)\n"
    view.Mv_core.View.row_count;
  let q1 =
    Mv_sql.Parser.parse_query schema
      {| select p_name, sum(l_extendedprice * l_quantity) as rev
         from lineitem, part
         where p_partkey = l_partkey and p_partkey = 42 and p_name like '%a%'
         group by p_name |}
  in
  let r = Mv_opt.Optimizer.optimize registry stats q1 in
  Printf.printf "point query on p_partkey -> plan (cost %.0f):\n%s"
    r.Mv_opt.Optimizer.cost
    (Mv_opt.Plan.to_string r.Mv_opt.Optimizer.plan);
  let direct = Mv_engine.Exec.execute db q1 in
  let via = Mv_opt.Plan_exec.execute db q1 r.Mv_opt.Optimizer.plan in
  Printf.printf "matches direct execution: %b\n\n"
    (Mv_engine.Relation.same_bag direct via);

  (* ---- 2. backjoin ---- *)
  print_endline "== 2. Base-table backjoin (section 7) ==";
  let bj_registry = Mv_core.Registry.create ~backjoins:true schema in
  let name, v2 =
    Mv_sql.Parser.parse_view schema
      {| create view keyed with schemabinding as
         select l_orderkey, l_linenumber, l_quantity from dbo.lineitem
         where l_quantity >= 5 |}
  in
  let view2 = Mv_core.Registry.add_view bj_registry ~name v2 in
  ignore (Mv_engine.Exec.materialize db view2);
  let q2 =
    Mv_sql.Parser.parse_query schema
      {| select l_orderkey, l_tax from lineitem
         where l_quantity >= 10 |}
  in
  print_endline "the view lacks l_tax, but outputs lineitem's key:";
  (match Mv_core.Registry.find_substitutes_spjg bj_registry q2 with
  | [] -> print_endline "no substitute (unexpected)"
  | s :: _ ->
      print_endline (Mv_core.Substitute.to_sql s);
      let direct = Mv_engine.Exec.execute db q2 in
      let via = Mv_engine.Exec.execute_substitute db s in
      Printf.printf "equivalent: %b\n" (Mv_engine.Relation.same_bag direct via));

  print_endline "\nDone."
