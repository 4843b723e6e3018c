(** Unit tests for optimizer internals: subexpression blocks,
    preaggregation block construction, the cost model, and plan
    utilities. *)

open Mv_base
open Helpers
module Spjg = Mv_relalg.Spjg
module Block = Mv_opt.Block
module Cost = Mv_opt.Cost

let stats = Mv_tpch.Datagen.synthetic_stats ()

let three_way =
  parse_q
    {| select l_orderkey, c_name from lineitem, orders, customer
       where l_orderkey = o_orderkey and o_custkey = c_custkey
         and l_quantity >= 30 and o_totalprice <= 100000 |}

(* the mask of the named tables in a query's join graph *)
let mask_of g tables =
  let all = Block.names g (Block.full g) in
  List.fold_left
    (fun m t ->
      let rec index i = function
        | [] -> Alcotest.failf "%s is not in the FROM list" t
        | x :: xs -> if x = t then i else index (i + 1) xs
      in
      m lor (1 lsl index 0 all))
    0 tables

let sub_block q tables =
  let g = Block.of_query q in
  Block.sub_block g (mask_of g tables)

let preagg_block q tables =
  let g = Block.of_query q in
  Block.preagg_block g (mask_of g tables)

let test_sub_block_single () =
  let b = sub_block three_way [ "lineitem" ] in
  Alcotest.(check (list string)) "tables" [ "lineitem" ] b.Spjg.tables;
  (* local predicate restricted to lineitem *)
  Alcotest.(check int) "one local conjunct" 1 (List.length b.Spjg.where);
  (* outputs include the join column and the query output *)
  let outs = Spjg.out_names b in
  Alcotest.(check bool) "outputs l_orderkey" true (List.mem "l_orderkey" outs)

let test_sub_block_pair () =
  let b = sub_block three_way [ "lineitem"; "orders" ] in
  Alcotest.(check int) "three local conjuncts" 3 (List.length b.Spjg.where);
  (* o_custkey crosses to customer, so it must be an output *)
  Alcotest.(check bool) "outputs o_custkey" true
    (List.mem "o_custkey" (Spjg.out_names b))

let test_sub_block_full_is_query () =
  let b = sub_block three_way three_way.Spjg.tables in
  Alcotest.(check string) "identity on the full set" (Spjg.to_sql three_way)
    (Spjg.to_sql b)

let agg_query =
  parse_q
    {| select c_nationkey, sum(l_quantity * l_extendedprice) as rev,
              count(*) as n
       from lineitem, orders, customer
       where l_orderkey = o_orderkey and o_custkey = c_custkey
       group by c_nationkey |}

let test_preagg_block_shape () =
  match preagg_block agg_query [ "lineitem"; "orders" ] with
  | None -> Alcotest.fail "expected a preagg block"
  | Some pa ->
      let b = pa.Block.block in
      Alcotest.(check bool) "aggregated" true (Spjg.is_aggregate b);
      (* grouped exactly on the crossing column *)
      (match b.Spjg.group_by with
      | Some [ Expr.Col c ] ->
          Alcotest.(check string) "grouped on o_custkey" "o_custkey" c.Col.col
      | _ -> Alcotest.fail "unexpected grouping");
      (* outputs: o_custkey, cnt, one sum *)
      Alcotest.(check int) "three outputs" 3 (List.length b.Spjg.out)

let test_preagg_rejected_when_args_cross () =
  (* aggregate argument needs lineitem: no preagg over orders alone *)
  Alcotest.(check bool) "no preagg without agg args" true
    (preagg_block agg_query [ "orders" ] = None)

let test_preagg_none_for_spj () =
  Alcotest.(check bool) "SPJ query has no preagg" true
    (preagg_block three_way [ "lineitem" ] = None)

let test_spj_part_strips_aggregation () =
  let b = Block.spj_part agg_query in
  Alcotest.(check bool) "no group by" false (Spjg.is_aggregate b);
  Alcotest.(check (list string)) "same tables" agg_query.Spjg.tables b.Spjg.tables

(* ---- the join graph against the list reference ---- *)

(* Every mask and every disjoint pair of nonempty masks of [q], in both
   orientations: the mask tests of {!Block} equal the list scans of
   {!Ref_block}. Returns how many pairs had post conjuncts and how many
   picks found no adjacent table, so callers can see both branches ran. *)
let check_graph (q : Spjg.t) =
  let g = Block.of_query q in
  let spj = Block.spj_part q in
  let edges = Ref_block.table_edges q in
  let full = Block.full g in
  let tables mask =
    List.filteri (fun i _ -> mask land (1 lsl i) <> 0) q.Spjg.tables
  in
  let fail what mask =
    Alcotest.failf "%s differs on {%s} of\n%s" what
      (String.concat "," (tables mask))
      (Spjg.to_sql q)
  in
  let preagg_text =
    Option.map (fun (pa : Block.preagg) ->
        ( Spjg.to_sql pa.Block.block,
          List.map
            (fun (n, a) -> n ^ "=" ^ Spjg.agg_to_string a)
            pa.Block.agg_binds ))
  in
  let keys_text = List.map (fun (a, b) -> Col.to_string a ^ "=" ^ Col.to_string b) in
  let preds_text = List.map Pred.to_string in
  let posts = ref 0 and fallbacks = ref 0 in
  for mask = 1 to full do
    let ts = tables mask in
    if Block.names g mask <> ts then fail "names" mask;
    if Block.connected g mask <> Ref_block.connected edges ts then
      fail "connected" mask;
    if
      Spjg.to_sql (Block.sub_block g mask)
      <> Spjg.to_sql (Ref_block.sub_block spj ts)
    then fail "sub_block" mask;
    if
      preagg_text (Block.preagg_block g mask)
      <> preagg_text (Ref_block.preagg_block q ts)
    then fail "preagg_block" mask
  done;
  for a = 1 to full do
    for b = a + 1 to full do
      if a land b = 0 then
        List.iter
          (fun (l, r) ->
            let lt = tables l and rt = tables r in
            if keys_text (Block.keys g l r)
               <> keys_text (Ref_block.cross_keys q lt rt)
            then fail "keys" (l lor r);
            let post = preds_text (Block.post g l r) in
            if post <> preds_text (Ref_block.post spj lt rt) then
              fail "post" (l lor r);
            if
              r land (r - 1) = 0
              && post <> preds_text (Ref_block.attach_post q lt (List.hd rt))
            then fail "attach post" (l lor r);
            if post <> [] then incr posts;
            let picked = Block.next g ~joined:l r in
            if tables picked <> [ Ref_block.attach_next q lt rt ] then
              fail "next" (l lor r);
            if Ref_block.cross_keys q lt (tables picked) = [] then
              incr fallbacks)
          [ (a, b); (b, a) ]
    done
  done;
  (!posts, !fallbacks)

let test_graph_matches_reference () =
  let w = Mv_experiments.Harness.make_workload ~nviews:0 ~nqueries:Golden.nqueries () in
  let handwritten =
    List.map parse_q
      [
        (* disconnected *)
        "select r_name, n_name from region, nation where r_regionkey >= 3 \
         and n_nationkey <= 2";
        (* a residual join conjunct, and a table joined by nothing *)
        "select l_orderkey, p_name from lineitem, orders, part where \
         l_orderkey = o_orderkey and l_shipdate >= o_orderdate and p_size <= 3";
        (* a conjunct over three tables *)
        "select l_orderkey from lineitem, orders, customer where l_orderkey = \
         o_orderkey and o_custkey = c_custkey and l_quantity + o_totalprice \
         >= c_acctbal";
      ]
  in
  let posts, fallbacks =
    List.fold_left
      (fun (p, f) q ->
        let p', f' = check_graph q in
        (p + p', f + f'))
      (0, 0)
      (w.Mv_experiments.Harness.queries @ handwritten @ [ three_way; agg_query ])
  in
  Alcotest.(check bool) "some split applies post conjuncts" true (posts > 0);
  Alcotest.(check bool) "some pick finds no adjacent table" true (fallbacks > 0)

(* ---- cost model ---- *)

let test_selectivity_multiplies () =
  let one =
    Cost.spj_rows stats ~tables:[ "lineitem" ]
      ~where:(parse_q "select l_orderkey from lineitem where l_quantity <= 25").Spjg.where
  in
  let two =
    Cost.spj_rows stats ~tables:[ "lineitem" ]
      ~where:
        (parse_q
           "select l_orderkey from lineitem where l_quantity <= 25 and l_discount <= 5")
          .Spjg.where
  in
  Alcotest.(check bool) "more predicates, fewer rows" true (two < one)

let test_equijoin_cardinality () =
  (* lineitem join orders on the FK: about one row per lineitem *)
  let j =
    Cost.spj_rows stats ~tables:[ "lineitem"; "orders" ]
      ~where:
        (parse_q
           "select l_orderkey from lineitem, orders where l_orderkey = o_orderkey")
          .Spjg.where
  in
  let li = float_of_int (Mv_catalog.Stats.row_count stats "lineitem") in
  Alcotest.(check bool)
    (Printf.sprintf "join est %.0f within 2x of lineitem %.0f" j li)
    true
    (j > li /. 2.0 && j < li *. 2.0)

let test_group_rows_capped () =
  let g = Cost.group_rows stats ~input:100.0 [ Expr.Col (col "orders" "o_orderkey") ] in
  Alcotest.(check bool) "groups below input" true (g <= 100.0)

let test_block_rows_aggregation () =
  let spj = Cost.block_rows stats (Block.spj_part agg_query) in
  let agg = Cost.block_rows stats agg_query in
  Alcotest.(check bool) "aggregation reduces rows" true (agg < spj)

(* ---- plan utilities ---- *)

let test_plan_printing_and_views_used () =
  let registry = Mv_core.Registry.create schema in
  let _, vdef =
    parse_v
      {| create view pi_v with schemabinding as
         select l_orderkey, l_quantity from dbo.lineitem |}
  in
  ignore (Mv_core.Registry.add_view registry ~name:"pi_v" ~row_count:10 vdef);
  let r =
    Mv_opt.Optimizer.optimize registry stats
      (parse_q "select l_orderkey from lineitem where l_quantity >= 10")
  in
  let txt = Mv_opt.Plan.to_string r.Mv_opt.Optimizer.plan in
  Alcotest.(check bool) "plan prints a ViewScan" true
    (Mv_opt.Plan.uses_view r.Mv_opt.Optimizer.plan);
  Alcotest.(check (list string)) "views_used" [ "pi_v" ]
    (Mv_opt.Plan.views_used r.Mv_opt.Optimizer.plan);
  Alcotest.(check bool) "printer mentions the view" true
    (let rec contains i =
       i + 4 <= String.length txt
       && (String.sub txt i 4 = "pi_v" || contains (i + 1))
     in
     contains 0)

let test_costs_monotone_in_inputs () =
  (* a plan over a narrower query should not cost more *)
  let registry = Mv_core.Registry.create schema in
  let narrow =
    Mv_opt.Optimizer.optimize registry stats
      (parse_q "select l_orderkey from lineitem where l_quantity = 3")
  in
  let wide =
    Mv_opt.Optimizer.optimize registry stats
      (parse_q "select l_orderkey from lineitem")
  in
  Alcotest.(check bool) "narrow rows <= wide rows" true
    (narrow.Mv_opt.Optimizer.rows <= wide.Mv_opt.Optimizer.rows)

let suite =
  [
    ( "opt-internals",
      [
        Alcotest.test_case "sub_block single table" `Quick test_sub_block_single;
        Alcotest.test_case "sub_block pair" `Quick test_sub_block_pair;
        Alcotest.test_case "sub_block full = query" `Quick
          test_sub_block_full_is_query;
        Alcotest.test_case "preagg block shape" `Quick test_preagg_block_shape;
        Alcotest.test_case "preagg rejected when args cross" `Quick
          test_preagg_rejected_when_args_cross;
        Alcotest.test_case "no preagg for SPJ" `Quick test_preagg_none_for_spj;
        Alcotest.test_case "spj_part strips aggregation" `Quick
          test_spj_part_strips_aggregation;
        Alcotest.test_case "join graph equals the list reference" `Quick
          test_graph_matches_reference;
        Alcotest.test_case "selectivity multiplies" `Quick
          test_selectivity_multiplies;
        Alcotest.test_case "equijoin cardinality" `Quick test_equijoin_cardinality;
        Alcotest.test_case "group rows capped" `Quick test_group_rows_capped;
        Alcotest.test_case "aggregation reduces rows" `Quick
          test_block_rows_aggregation;
        Alcotest.test_case "plan printing and views_used" `Quick
          test_plan_printing_and_views_used;
        Alcotest.test_case "cost monotone in inputs" `Quick
          test_costs_monotone_in_inputs;
      ] );
  ]
