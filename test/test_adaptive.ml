(** Execution differentials against the naive oracle ({!Naive}), which
    shares no code with the executor: direct execution with and without
    statistics (estimated vs connectivity join order, index-narrowed
    scans and hash joins), optimizer plans through [Plan_exec], and matched
    rewrites all produce the oracle's bag; and every substitute the rule
    emits competes on cost in the memo. *)

module Spjg = Mv_relalg.Spjg

let schema = Mv_tpch.Schema.schema

(* One shared database with statistics built from its actual contents
   (histograms included), plus the declared indexes that narrow the
   executor's scans. *)
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

(* ---- grouping over NULLs ---- *)

(* t(id, k, g, x, y) and u(id, h, z): [k] joins u's key; [g] and [h] are
   grouping columns holding NULL, an Int and the equal Float; [x] and [z]
   nullable Ints, [y] nullable numbers whose sums are exact in any order,
   so the executor's fold order cannot change a sum. *)
let null_schema =
  let column ?(nullable = true) name ty =
    Mv_catalog.Column.make ~nullable name ty
  in
  Mv_catalog.Schema.make
    ~tables:
      [
        Mv_catalog.Table_def.make ~name:"t"
          ~columns:
            [
              column ~nullable:false "id" Mv_base.Dtype.Int;
              column "k" Mv_base.Dtype.Int; column "g" Mv_base.Dtype.Float;
              column "x" Mv_base.Dtype.Int; column "y" Mv_base.Dtype.Float;
            ]
          ~primary_key:[ "id" ] ();
        Mv_catalog.Table_def.make ~name:"u"
          ~columns:
            [
              column ~nullable:false "id" Mv_base.Dtype.Int;
              column "h" Mv_base.Dtype.Float; column "z" Mv_base.Dtype.Int;
            ]
          ~primary_key:[ "id" ] ();
      ]
    ~foreign_keys:[]

(* A random database over [null_schema] (either table may be empty), a
   random grouped block over it (t alone or t joined to u, an optional
   filter, zero to two grouping columns, one to four aggregates), and an
   aggregate view for the block: its tables, WHERE and grouping list, on a
   coin one more of t.g and t.x (so the rule meets both the same grouping
   and a regrouping), COUNT_BIG( * ) and one SUM per aggregate argument. *)
let gen_null_case seed =
  let open Mv_base in
  let rng = Mv_util.Prng.create seed in
  let pick l = Mv_util.Prng.pick rng l in
  let key () = pick [ Value.Null; Value.Int 1; Value.Float 1.0; Value.Int 2 ] in
  let int () =
    if Mv_util.Prng.chance rng 0.4 then Value.Null
    else Value.Int (Mv_util.Prng.int_range rng (-3) 5)
  in
  let num () =
    pick
      [ Value.Null; Value.Float 0.5; Value.Float (-1.25); Value.Int 2;
        Value.Float 2.0 ]
  in
  let db = Mv_engine.Database.create null_schema in
  Helpers.insert db "t"
    (List.init (Mv_util.Prng.int rng 7) (fun i ->
         [| Value.Int i; Value.Int (Mv_util.Prng.int rng 3); key (); int ();
            num () |]));
  Helpers.insert db "u"
    (List.init (Mv_util.Prng.int rng 4) (fun i ->
         [| Value.Int i; key (); int () |]));
  let c tbl name = Expr.Col (Col.make tbl name) in
  let joined = Mv_util.Prng.bool rng in
  let tables = if joined then [ "t"; "u" ] else [ "t" ] in
  let where =
    (if joined then [ Pred.Cmp (Pred.Eq, c "t" "k", c "u" "id") ] else [])
    @
    if Mv_util.Prng.chance rng 0.3 then
      [ Pred.Cmp (Pred.Ge, c "t" "x", Expr.Const (Value.Int 0)) ]
    else []
  in
  let keys = [ c "t" "g"; c "t" "x" ] @ if joined then [ c "u" "h" ] else [] in
  let group_by =
    List.filteri (fun i _ -> i < Mv_util.Prng.int rng 3)
      (Mv_util.Prng.shuffle rng keys)
  in
  let args =
    [ c "t" "id"; c "t" "x"; c "t" "y";
      Expr.Binop (Expr.Add, c "t" "x", c "t" "y") ]
    @ if joined then [ c "u" "z" ] else []
  in
  let agg () =
    let e = pick args in
    match Mv_util.Prng.int rng 5 with
    | 0 -> Spjg.Count_star
    | 1 -> Spjg.Sum e
    | 2 -> Spjg.Sum0 e
    | 3 -> Spjg.Avg e
    | _ -> Spjg.Sum_div_sum (e, pick args)
  in
  let grouping group_by =
    List.mapi (fun i g -> Spjg.scalar (Printf.sprintf "g%d" i) g) group_by
  in
  let aggs =
    List.init
      (1 + Mv_util.Prng.int rng 4)
      (fun i -> (Printf.sprintf "a%d" i, agg ()))
  in
  let extras =
    List.filter (fun e -> not (List.mem e group_by)) [ c "t" "g"; c "t" "x" ]
  in
  let view_group =
    if extras <> [] && Mv_util.Prng.bool rng then group_by @ [ pick extras ]
    else group_by
  in
  let sums =
    List.sort_uniq compare
      (List.concat_map
         (function
           | _, (Spjg.Sum e | Spjg.Sum0 e | Spjg.Avg e) -> [ e ]
           | _, Spjg.Sum_div_sum (a, b) -> [ a; b ]
           | _, Spjg.Count_star -> [])
         aggs)
  in
  ( db,
    Spjg.make ~tables ~where ~group_by:(Some group_by)
      ~out:
        (grouping group_by
        @ List.map (fun (name, a) -> Spjg.aggregate name a) aggs),
    Spjg.make ~tables ~where ~group_by:(Some view_group)
      ~out:
        (grouping view_group
        @ Spjg.aggregate "cnt" Spjg.Count_star
          :: List.mapi
               (fun i e -> Spjg.aggregate (Printf.sprintf "s%d" i) (Spjg.Sum e))
               sums) )

(* The view-free plan of a grouped block: its SPJ part as one leaf under
   an aggregate node, so grouping runs in [Exec.Bag.group]. *)
let aggregate_plan (q : Spjg.t) =
  let cols = Mv_base.Col.Set.elements (Spjg.referenced_columns q) in
  let name (c : Mv_base.Col.t) = c.Mv_base.Col.tbl ^ "_" ^ c.Mv_base.Col.col in
  let leaf =
    Mv_opt.Plan.Leaf
      {
        source =
          Mv_opt.Plan.Computed
            (Spjg.make ~tables:q.Spjg.tables ~where:q.Spjg.where
               ~group_by:None
               ~out:
                 (List.map
                    (fun c -> Spjg.scalar (name c) (Mv_base.Expr.Col c))
                    cols));
        binds = List.map (fun c -> (name c, c)) cols;
        est_rows = 1.0;
        est_cost = 1.0;
      }
  in
  Mv_opt.Plan.Aggregate
    {
      input = leaf;
      group_by = Option.value ~default:[] q.Spjg.group_by;
      out = q.Spjg.out;
      est_rows = 1.0;
      est_cost = 1.0;
    }

(* Direct execution, plan execution, the optimizer's plan (with its
   preaggregated alternatives, and no views) and every substitute the rule
   finds over the block's materialized view, of random grouped blocks over
   NULL-bearing columns, compute the oracle's bag: all-NULL groups, empty
   inputs, an Int and the equal Float in one group, and COUNT( * ), SUM,
   SUM0, AVG and SUM/SUM side by side. *)
let prop_grouping_nulls =
  QCheck.Test.make
    ~name:"grouping: aggregates over NULLs equal the naive oracle"
    ~count:(Helpers.qcheck_count 1000)
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let db, q, view = gen_null_case seed in
      let show (r : Mv_engine.Relation.t) = Mv_engine.Relation.to_string r in
      let oracle = Naive.execute db q in
      let stats = Mv_engine.Database.stats db in
      let optimized =
        (Mv_opt.Optimizer.optimize
           (Mv_core.Registry.create null_schema)
           stats q)
          .Mv_opt.Optimizer.plan
      in
      let runs =
        [
          ("exec", Mv_engine.Exec.execute db q);
          ("plan_exec", Mv_opt.Plan_exec.execute db q (aggregate_plan q));
          ("optimizer", Mv_opt.Plan_exec.execute ~stats db q optimized);
        ]
      in
      let registry = Mv_core.Registry.create null_schema in
      let matched =
        match Mv_core.Registry.add_view registry ~name:"v" view with
        | exception Mv_core.View.Rejected _ -> []
        | v ->
            ignore (Mv_engine.Exec.materialize db v);
            List.map
              (fun s ->
                ( "matched " ^ Mv_core.Substitute.to_sql s,
                  Mv_engine.Exec.execute_substitute db s ))
              (Mv_core.Registry.find_substitutes_spjg registry q)
      in
      let runs = runs @ matched in
      agree_with_naive ~what:"grouped execution"
        ~detail:
          (Printf.sprintf "query:\n%s\nview:\n%s\nnaive:\n%s%s"
             (Spjg.to_sql q) (Spjg.to_sql view) (show oracle)
             (String.concat ""
                (List.map (fun (n, r) -> n ^ ":\n" ^ show r) runs)))
        oracle runs)

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

(* A join into a table with a declared index computes the oracle's bag,
   and a second execution probes the hash table the first one kept over
   the table's row list. *)
let test_build_table_reused () =
  let db = Lazy.force db in
  let stats = Lazy.force stats in
  let q =
    Helpers.parse_q
      "select p_brand, l_quantity from lineitem, part where l_partkey = \
       p_partkey and p_size >= 40"
  in
  let gval = Mv_obs.Registry.counter_value Mv_obs.Registry.global in
  let oracle = Naive.execute db q in
  let run () =
    let before = gval "exec.build.reused" in
    Alcotest.(check bool)
      "bag-identical" true
      (Mv_engine.Relation.same_bag oracle (Mv_engine.Exec.execute ~stats db q));
    gval "exec.build.reused" - before
  in
  ignore (run ());
  Alcotest.(check int) "the second execution reuses the build table" 1 (run ())

(* Every substitute the rule emits becomes a leaf that competes on cost:
   under Alt the memo considers exactly [rule.substitutes] leaves, each a
   win or a loss; under NoAlt the rule still runs and the memo considers
   none. *)
let test_every_substitute_competes () =
  let w =
    Mv_experiments.Harness.make_workload ~nviews:200 ~nqueries:25 ()
  in
  let counts produce_substitutes =
    let registry = Mv_core.Registry.create w.Mv_experiments.Harness.schema in
    List.iter
      (Mv_core.Registry.add_prebuilt registry)
      w.Mv_experiments.Harness.views;
    List.iter
      (fun q ->
        ignore
          (Mv_opt.Optimizer.optimize
             ~config:{ Mv_opt.Optimizer.produce_substitutes }
             registry w.Mv_experiments.Harness.stats q))
      w.Mv_experiments.Harness.queries;
    let n = Mv_obs.Registry.counter_value registry.Mv_core.Registry.obs in
    ( n "rule.substitutes",
      n "optimizer.substitutes.considered",
      n "optimizer.substitutes.wins",
      n "optimizer.substitutes.losses" )
  in
  let substitutes, considered, wins, losses = counts true in
  Alcotest.(check bool) "the rule emits substitutes" true (substitutes > 0);
  Alcotest.(check int) "Alt: every substitute considered" substitutes
    considered;
  Alcotest.(check int) "Alt: each a win or a loss" considered (wins + losses);
  let substitutes, considered, _, _ = counts false in
  Alcotest.(check bool) "NoAlt: the rule still emits substitutes" true
    (substitutes > 0);
  Alcotest.(check int) "NoAlt: none considered" 0 considered

let suite =
  [
    ( "prop_adaptive",
      [
        Helpers.qtest adaptive_exec_prop;
        Helpers.qtest plan_exec_prop;
        Helpers.qtest adaptive_rewrite_prop;
        Helpers.qtest prop_grouping_nulls;
        Alcotest.test_case "a second execution reuses the build table" `Quick
          test_build_table_reused;
        Alcotest.test_case "every substitute competes on cost" `Quick
          test_every_substitute_competes;
      ] );
  ]
