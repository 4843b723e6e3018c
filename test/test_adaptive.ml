(** Execution differentials against the naive oracle ({!Naive}), which
    shares no code with the executor: direct execution with and without
    statistics (estimated vs connectivity join order, index probes and
    hash joins), optimizer plans through [Plan_exec], and matched
    rewrites all produce the oracle's bag; and branch-and-bound cost-bound
    pruning never changes the chosen plan, only the work done. *)

module Spjg = Mv_relalg.Spjg

let schema = Mv_tpch.Schema.schema

(* One shared database with statistics built from its actual contents
   (histograms included), plus the declared indexes the executor can
   probe. *)
let db =
  lazy
    (let db = Mv_tpch.Datagen.generate ~seed:57 ~scale:2 () in
     List.iter
       (fun (table, cols) -> Mv_engine.Database.declare_index db ~table ~cols)
       [
         ("lineitem", [ "l_orderkey" ]);
         ("lineitem", [ "l_partkey" ]);
         ("orders", [ "o_orderkey" ]);
         ("part", [ "p_partkey" ]);
       ];
     db)

let stats = lazy (Mv_engine.Database.stats (Lazy.force db))

let gen_query seed =
  let rng = Mv_util.Prng.create seed in
  Mv_workload.Generator.generate_query schema (Lazy.force stats) rng

(* [runs] all equal the oracle's bag; otherwise report the first that
   does not. *)
let agree_with_naive ~what ~detail oracle runs =
  match
    List.find_opt
      (fun (_, r) -> not (Mv_engine.Relation.same_bag oracle r))
      runs
  with
  | None -> true
  | Some (name, r) ->
      QCheck.Test.fail_reportf
        "%s diverged from the naive oracle (%s)!\n%s\nnaive=%d rows %s=%d rows"
        what name detail
        (Mv_engine.Relation.cardinality oracle)
        name
        (Mv_engine.Relation.cardinality r)

(* Direct execution, with statistics (estimated join order) and without
   (connectivity order), computes the oracle's bag for random section-5
   queries. *)
let adaptive_exec_prop =
  QCheck.Test.make ~name:"adaptive: direct execution equals the naive oracle"
    ~count:(Helpers.qcheck_count 150) QCheck.small_int (fun seed ->
      let q = gen_query ((seed * 7919) + 1) in
      let db = Lazy.force db in
      agree_with_naive ~what:"direct execution"
        ~detail:("query:\n" ^ Spjg.to_sql q)
        (Naive.execute db q)
        [
          ("with stats", Mv_engine.Exec.execute ~stats:(Lazy.force stats) db q);
          ("without stats", Mv_engine.Exec.execute db q);
        ])

(* Optimizer plans, run with and without statistics for their leaves,
   compute the oracle's bag. *)
let plan_exec_prop =
  QCheck.Test.make ~name:"adaptive: plan execution equals the naive oracle"
    ~count:(Helpers.qcheck_count 100) QCheck.small_int (fun seed ->
      let q = gen_query ((seed * 104729) + 2) in
      let db = Lazy.force db in
      let stats = Lazy.force stats in
      let registry = Mv_core.Registry.create schema in
      let r = Mv_opt.Optimizer.optimize registry stats q in
      let plan = r.Mv_opt.Optimizer.plan in
      agree_with_naive ~what:"plan execution"
        ~detail:
          (Printf.sprintf "query:\n%s\nplan:\n%s" (Spjg.to_sql q)
             (Mv_opt.Plan.to_string plan))
        (Naive.execute db q)
        [
          ("with stats", Mv_opt.Plan_exec.execute ~stats db q plan);
          ("without stats", Mv_opt.Plan_exec.execute db q plan);
        ])

(* Matched rewrites executed with statistics compute the oracle's bag of
   the original query. Samples the matcher-accepted (query, substitute)
   pool built by {!Test_prop_equivalence} — random pairs almost never
   match, the pool guarantees real rewrites. *)
let adaptive_rewrite_prop =
  QCheck.Test.make
    ~name:"adaptive: rewritten queries equal the naive oracle"
    ~count:(Helpers.qcheck_count 150)
    QCheck.(pair (int_bound 1_000_000) (int_range 1 4))
    (fun (pick, db_seed) ->
      let pairs = Lazy.force Test_prop_equivalence.matched_pairs in
      let query, s = List.nth pairs (pick mod List.length pairs) in
      let db = Mv_tpch.Datagen.generate ~seed:db_seed ~scale:1 () in
      let oracle = Naive.execute db query in
      ignore (Mv_engine.Exec.materialize db s.Mv_core.Substitute.view);
      let stats = Mv_engine.Database.stats db in
      agree_with_naive ~what:"rewrite"
        ~detail:
          (Printf.sprintf "query:\n%s\nsubstitute:\n%s" (Spjg.to_sql query)
             (Mv_core.Substitute.to_sql s))
        oracle
        [
          ("direct", Mv_engine.Exec.execute db query);
          ("via view", Mv_engine.Exec.execute_substitute ~stats db s);
        ])

(* The indexed nested loop actually fires on a small-probe / large-build
   join with a declared index, and computes the oracle's bag. *)
let test_inlj_fires () =
  let db = Lazy.force db in
  let stats = Lazy.force stats in
  let q =
    Helpers.parse_q
      "select p_brand, l_quantity from lineitem, part where l_partkey = \
       p_partkey and p_size >= 40"
  in
  let gval = Mv_obs.Registry.counter_value Mv_obs.Registry.global in
  let before = gval "exec.join.strategy.inlj" in
  let got = Mv_engine.Exec.execute ~stats db q in
  Alcotest.(check bool)
    "bag-identical" true
    (Mv_engine.Relation.same_bag (Naive.execute db q) got);
  Alcotest.(check bool)
    "indexed nested loop fired" true
    (gval "exec.join.strategy.inlj" > before)

(* Cost-bound pruning fires on a real view population and the chosen
   plans are identical with pruning on and off. *)
let test_prune_plans_unchanged () =
  let w =
    Mv_experiments.Harness.make_workload ~nviews:200 ~nqueries:25 ()
  in
  let make () =
    let registry = Mv_core.Registry.create w.Mv_experiments.Harness.schema in
    List.iter
      (Mv_core.Registry.add_prebuilt registry)
      w.Mv_experiments.Harness.views;
    registry
  in
  let plans config registry =
    List.map
      (fun q ->
        let r =
          Mv_opt.Optimizer.optimize ~config registry
            w.Mv_experiments.Harness.stats q
        in
        ( Mv_opt.Plan.to_string r.Mv_opt.Optimizer.plan,
          r.Mv_opt.Optimizer.cost ))
      w.Mv_experiments.Harness.queries
  in
  let reg_on = make () and reg_off = make () in
  let with_prune = plans Mv_opt.Optimizer.default_config reg_on in
  let without_prune =
    plans
      { Mv_opt.Optimizer.default_config with prune_cost_bound = false }
      reg_off
  in
  Alcotest.(check bool)
    "identical plans and costs" true
    (with_prune = without_prune);
  let prunes =
    Mv_obs.Registry.counter_value reg_on.Mv_core.Registry.obs
      "opt.prune.cost_bound"
  in
  Alcotest.(check bool) "pruning fired" true (prunes > 0);
  Alcotest.(check int)
    "no pruning when disabled" 0
    (Mv_obs.Registry.counter_value reg_off.Mv_core.Registry.obs
       "opt.prune.cost_bound")

(* The pruned views are reported in the result's provenance. *)
let test_pruned_views_reported () =
  let w =
    Mv_experiments.Harness.make_workload ~nviews:200 ~nqueries:25 ()
  in
  let registry = Mv_core.Registry.create w.Mv_experiments.Harness.schema in
  List.iter
    (Mv_core.Registry.add_prebuilt registry)
    w.Mv_experiments.Harness.views;
  let total =
    List.fold_left
      (fun acc q ->
        let r =
          Mv_opt.Optimizer.optimize registry w.Mv_experiments.Harness.stats q
        in
        acc + List.length r.Mv_opt.Optimizer.pruned_views)
      0 w.Mv_experiments.Harness.queries
  in
  let counted =
    Mv_obs.Registry.counter_value registry.Mv_core.Registry.obs
      "opt.prune.cost_bound"
  in
  Alcotest.(check int) "provenance matches the counter" counted total;
  Alcotest.(check bool) "some prunes happened" true (total > 0)

let suite =
  [
    ( "prop_adaptive",
      [
        Helpers.qtest adaptive_exec_prop;
        Helpers.qtest plan_exec_prop;
        Helpers.qtest adaptive_rewrite_prop;
        Alcotest.test_case "indexed nested loop fires" `Quick test_inlj_fires;
        Alcotest.test_case "cost-bound pruning keeps plans" `Quick
          test_prune_plans_unchanged;
        Alcotest.test_case "pruned views reported" `Quick
          test_pruned_views_reported;
      ] );
  ]
