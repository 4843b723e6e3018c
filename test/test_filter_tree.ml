(** Filter-tree tests: the index must never prune a view the full matcher
    accepts (for the workload class: plain-column outputs, exactly like the
    paper's randomly generated views/queries), and filtered matching must
    return the same substitutes as a linear scan. *)

module Spjg = Mv_relalg.Spjg
module A = Mv_relalg.Analysis

let schema = Mv_tpch.Schema.schema
let stats = Mv_tpch.Datagen.synthetic_stats ()

(* one shared population of views, indexed and linear *)
let population = 300

let filtered, linear =
  let f = Mv_core.Registry.create ~use_filter:true schema in
  let l = Mv_core.Registry.create ~use_filter:false schema in
  List.iter
    (fun (name, spjg) ->
      let v = Mv_core.View.create schema ~name spjg in
      Mv_core.Registry.add_prebuilt f v;
      Mv_core.Registry.add_prebuilt l v)
    (Mv_workload.Generator.views ~seed:909 schema stats population);
  (f, l)

let names subs =
  List.sort compare
    (List.map
       (fun s -> s.Mv_core.Substitute.view.Mv_core.View.name)
       subs)

(* The central soundness property (section 4): filtering + matching finds
   exactly the same substitutes as matching every view linearly. *)
let soundness_prop =
  QCheck.Test.make
    ~name:"filter tree: same substitutes as linear scan (workload class)"
    ~count:300 QCheck.small_int
    (fun seed ->
      let rng = Mv_util.Prng.create (seed + 31337) in
      let q = Mv_workload.Generator.generate_query schema stats rng in
      let qa = A.analyze schema q in
      let with_tree = names (Mv_core.Registry.find_substitutes filtered qa) in
      let without = names (Mv_core.Registry.find_substitutes linear qa) in
      if with_tree <> without then
        QCheck.Test.fail_reportf
          "filter tree diverges on:\n%s\nwith tree: %s\nlinear: %s"
          (Spjg.to_sql q)
          (String.concat "," with_tree)
          (String.concat "," without)
      else true)

(* candidates must always be a superset of the linearly matched views *)
let candidates_cover_matches_prop =
  QCheck.Test.make ~name:"filter tree: candidates cover all matches"
    ~count:300 QCheck.small_int
    (fun seed ->
      let rng = Mv_util.Prng.create (seed + 777) in
      let q = Mv_workload.Generator.generate_query schema stats rng in
      let qa = A.analyze schema q in
      let cands =
        List.map (fun v -> v.Mv_core.View.name)
          (Mv_core.Registry.candidates filtered qa)
      in
      List.for_all
        (fun n -> List.mem n cands)
        (names (Mv_core.Registry.find_substitutes linear qa)))

(* pruning must be real: on average candidates are a small fraction *)
let test_pruning_effective () =
  let rng = Mv_util.Prng.create 5150 in
  let total = ref 0 in
  let n = 50 in
  for _ = 1 to n do
    let q = Mv_workload.Generator.generate_query schema stats rng in
    let qa = A.analyze schema q in
    total := !total + List.length (Mv_core.Registry.candidates filtered qa)
  done;
  let avg = float_of_int !total /. float_of_int n in
  if avg > float_of_int population *. 0.2 then
    Alcotest.failf "filter tree barely prunes: %.1f candidates of %d views"
      avg population

let test_insert_remove () =
  let r = Mv_core.Registry.create schema in
  let _, spjg =
    Mv_sql.Parser.parse_view schema
      {| create view ft_v with schemabinding as
         select l_orderkey, l_quantity from dbo.lineitem where l_quantity >= 5 |}
  in
  let _view = Mv_core.Registry.add_view r ~name:"ft_v" spjg in
  let q =
    Mv_sql.Parser.parse_query schema
      "select l_orderkey from lineitem where l_quantity >= 10"
  in
  Alcotest.(check int) "found before removal" 1
    (List.length (Mv_core.Registry.find_substitutes_spjg r q));
  Mv_core.Registry.remove_view r "ft_v";
  Alcotest.(check int) "gone after removal" 0
    (List.length (Mv_core.Registry.find_substitutes_spjg r q));
  Alcotest.(check int) "view count" 0 (Mv_core.Registry.view_count r)

let test_agg_view_never_candidate_for_spj_query () =
  (* the split after level six: aggregation views live in a branch SPJ
     queries never visit *)
  let r = Mv_core.Registry.create schema in
  let _, spjg =
    Mv_sql.Parser.parse_view schema
      {| create view ft_agg with schemabinding as
         select o_custkey, count_big(*) as cnt from dbo.orders group by o_custkey |}
  in
  ignore (Mv_core.Registry.add_view r ~name:"ft_agg" spjg);
  let q = Mv_sql.Parser.parse_query schema "select o_custkey from orders" in
  let qa = A.analyze schema q in
  Alcotest.(check int) "not a candidate" 0
    (List.length (Mv_core.Registry.candidates r qa))

let test_duplicate_view_rejected () =
  let r = Mv_core.Registry.create schema in
  let _, spjg =
    Mv_sql.Parser.parse_view schema
      {| create view dup with schemabinding as
         select l_orderkey, l_quantity from dbo.lineitem |}
  in
  ignore (Mv_core.Registry.add_view r ~name:"dup" spjg);
  Alcotest.(check bool) "duplicate raises" true
    (try
       ignore (Mv_core.Registry.add_view r ~name:"dup" spjg);
       false
     with Mv_core.Registry.Duplicate_view _ -> true)

let test_stats_counters () =
  let r = Mv_core.Registry.create schema in
  let _, spjg =
    Mv_sql.Parser.parse_view schema
      {| create view sc_v with schemabinding as
         select l_orderkey, l_quantity from dbo.lineitem where l_quantity >= 5 |}
  in
  ignore (Mv_core.Registry.add_view r ~name:"sc_v" spjg);
  let q =
    Mv_sql.Parser.parse_query schema
      "select l_orderkey from lineitem where l_quantity >= 10"
  in
  ignore (Mv_core.Registry.find_substitutes_spjg r q);
  ignore (Mv_core.Registry.find_substitutes_spjg r q);
  let count = Mv_obs.Registry.counter_value r.Mv_core.Registry.obs in
  Alcotest.(check int) "invocations" 2 (count "rule.invocations");
  Alcotest.(check int) "substitutes" 2 (count "rule.substitutes");
  Alcotest.(check bool) "searches recorded" true
    (count "filter_tree.searches" > 0);
  Mv_core.Registry.reset_stats r;
  Alcotest.(check int) "reset" 0 (count "rule.invocations");
  Alcotest.(check int) "reset filter tree" 0 (count "filter_tree.searches")

let suite =
  [
    ( "filter-tree",
      [
        Helpers.qtest soundness_prop;
        Helpers.qtest candidates_cover_matches_prop;
        Alcotest.test_case "pruning is effective" `Quick test_pruning_effective;
        Alcotest.test_case "insert and remove" `Quick test_insert_remove;
        Alcotest.test_case "agg view hidden from SPJ query" `Quick
          test_agg_view_never_candidate_for_spj_query;
        Alcotest.test_case "duplicate view rejected" `Quick
          test_duplicate_view_rejected;
        Alcotest.test_case "stats counters" `Quick test_stats_counters;
      ] );
  ]
