(** Allocation budgets: minor words per optimization over a fixed section 5
    slice at 1000 views and without views (the first 100 queries of the
    harness population), per executed read and per maintained write over
    a fixed small TPC-H instance, each one warm, uncached, single-domain
    pass; and minor words to register the 1000 views and per registry
    write among them. Words per operation repeat exactly across
    processes, so unlike wall time they can gate a regression in CI, and
    a figure that falls more than the tolerance below its constant fails
    too, naming the constant to lower. *)

module H = Mv_experiments.Harness
module DB = Mv_engine.Database

(* Measured on this slice, at 1000 views and without views (the memo and
   the analyses alone). Before the section 3 tests moved to dense column
   ids the same pass took 679,388 words per optimization at 1000 views
   (581,164 on the full 1000-query pass). Before the memo placed conjuncts
   by table mask (it rebuilt table lists and scanned the WHERE list on
   every split) it took 163,081 at 1000 views, under a budget of 161,944,
   and 57,323 without views. Since every substitute leaf is costed in
   full (no branch-and-bound cut) a pass takes 126,237 at 1000 views,
   inside the tolerance of the budget measured before it; without views,
   where the cut never fired, dropping it and the rule's CPU-clock timer
   took the figure from 22,054 to 21,513. Histogram bucketing called
   [Float.frexp], which allocates, on every positive sample, so a phase
   shorter than the clock's tick allocated less and the figures varied
   between processes: 126,236-126,237 and 21,513-21,516. Since it reads
   the exponent's bits they repeat exactly: 126,083 (inside the
   tolerance above the budget of 125,551) and 21,423, until each
   lattice search marked its visits in bytes of its own instead of
   borrowing a stamp array from a domain-local pool inside
   [Fun.protect]. The bitset word loops ([subset], [inter_empty],
   [equal], [compare]) each allocated a closure per call until they
   became top-level functions: 111,994 at 1000 views. *)
let budget = 95_610.

let no_view_budget = 21_148.

(* Measured on the exec fixture below. Before the executor ran on
   slot-compiled value arrays (tuples were column-keyed maps) the same
   passes took 68,450 words per read and 67,659 per write. Before
   [Database.touch] dropped built indexes in place (it copied the whole
   index cache on every write) a write took 25,666. Before hash joins
   reused a build table per stored row list, aggregate groups owned
   their stored rows, SPJ deletes prefiltered on one column and
   statistics were cut by binary search, a read took 15,708-15,713 under
   a budget of 18,030 and a write 25,542. A read then took 15,587-15,597
   over ten processes (the histogram bucketing above), under a budget of
   15,597. Before every base-table write went through [Database.write]
   and delta terms read their slices without a scratch database per
   term, a write took 21,260. Before every keyed join hashed the rows its
   table reads (an index nested loop served small probe sides, and an
   index-narrowed table was hashed per join) and each lattice search
   allocated its own visit marks, a read took 15,534 and a write
   16,539. Before a view's statistics entry was rebuilt only once its
   changed rows passed PostgreSQL's autoanalyze threshold (every write
   kept a sorted copy of each view column and its distinct count, and
   every refresh derived the written views' entries from them), a write
   took 15,504; the figure now includes whatever rebuilds the measured
   writes trigger. Before a rebuild built only the columns the cost model
   had read and deferred the rest to their first read (the fixture reads
   none, so its rebuilds build no column), a write took 8,680. Before an
   aggregate view's stored list was rebuilt from its groups after a batch
   that changes one (a walk copied the list up to the last changed row,
   finding the changed rows by physical identity), a write took 6,785. *)
let read_budget = 14_987.
let write_budget = 6_531.

(* Measured on the section 5 views (1000): minor words to register them
   all into a fresh registry, and per registry write in serve-churn's
   pattern, a drop or re-add of one of the last 8 views. Before every add
   and drop published a path-copied tree, a registry read its master tree
   until the first [Registry.snapshot] and rebuilt the tree from scratch
   on every write after it: registration took 2,686,507 words, the first
   snapshot 1,176,499 more (the registration budget must stay under their
   sum, 3,863,006), and a write 1,179,714. The budgets then stood at
   3,251,974 and 5,087, above figures of 3,130,684 and 4,856. Before each
   lattice search allocated its own visit marks, registration took
   3,130,555 and a write 4,856. Before the bitset word loops stopped
   allocating a closure per call, registration took 2,914,247 and a
   write 4,749; those loops alone bring them to 2,609,843 and 4,205, and
   the change log every snapshot carries (one logged change per write,
   the log halved at 2,048) adds the rest. *)
let register_budget = 2_633_323.
let mutation_budget = 4_229.

let tolerance = 0.03

let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let words_per_optimization ~nviews () =
  let w = H.make_workload ~nviews ~nqueries:100 () in
  let registry = Mv_core.Registry.create w.H.schema in
  List.iter (Mv_core.Registry.add_prebuilt registry) w.H.views;
  Mv_relalg.Intern.freeze ();
  let pass () =
    List.iter
      (fun q -> ignore (Mv_opt.Optimizer.optimize registry w.H.stats q))
      w.H.queries
  in
  pass ();
  words pass /. float_of_int (List.length w.H.queries)

let section5_views = lazy (H.make_workload ~nqueries:1 ()).H.views

let words_to_register () =
  let views = Lazy.force section5_views in
  let registry = Mv_core.Registry.create Mv_tpch.Schema.schema in
  words (fun () -> List.iter (Mv_core.Registry.add_prebuilt registry) views)

let words_per_mutation () =
  let views = Lazy.force section5_views in
  let registry = Mv_core.Registry.create Mv_tpch.Schema.schema in
  List.iter (Mv_core.Registry.add_prebuilt registry) views;
  let tail = List.filteri (fun i _ -> i >= List.length views - 8) views in
  let churn () =
    List.iter
      (fun (v : Mv_core.View.t) ->
        Mv_core.Registry.remove_view registry v.Mv_core.View.name;
        Mv_core.Registry.add_prebuilt registry v)
      tail
  in
  churn ();
  words churn /. 16.

(* bench --exec's views and queries: three views, four queries they
   answer, two joins over base tables only. *)
let exec_views =
  [
    "create view v_rev_cust with schemabinding as select o_custkey, \
     count_big(*) as cnt, sum(l_extendedprice) as rev from dbo.lineitem, \
     dbo.orders where l_orderkey = o_orderkey group by o_custkey";
    "create view v_qtyship with schemabinding as select l_orderkey, \
     l_partkey, l_quantity, l_extendedprice from dbo.lineitem where \
     l_quantity >= 25";
    "create view v_brand_qty with schemabinding as select p_brand, \
     count_big(*) as cnt, sum(l_quantity) as sq from dbo.lineitem, \
     dbo.part where l_partkey = p_partkey group by p_brand";
  ]

let exec_queries =
  [
    "select o_custkey, sum(l_extendedprice) as rev from dbo.lineitem, \
     dbo.orders where l_orderkey = o_orderkey group by o_custkey";
    "select o_custkey, count_big(*) as cnt from dbo.lineitem, dbo.orders \
     where l_orderkey = o_orderkey and o_custkey <= 10 group by o_custkey";
    "select l_orderkey, l_extendedprice from dbo.lineitem where \
     l_quantity >= 30";
    "select p_brand, sum(l_quantity) as sq from dbo.lineitem, dbo.part \
     where l_partkey = p_partkey group by p_brand";
    "select n_name, count_big(*) as cnt from dbo.supplier, dbo.nation, \
     dbo.region where s_nationkey = n_nationkey and n_regionkey = \
     r_regionkey group by n_name";
    "select o_orderkey, p_name from dbo.lineitem, dbo.orders, dbo.part \
     where l_orderkey = o_orderkey and l_partkey = p_partkey and p_size >= \
     40 and o_totalprice >= 400000";
  ]

(* TPC-H at scale 1, the primary-key indexes the exec-mixed benchmark
   declares, and the views above, materialized and registered. *)
let exec_fixture () =
  let schema = Mv_tpch.Schema.schema in
  let db = Mv_tpch.Datagen.generate ~seed:42 ~scale:1 () in
  List.iter
    (fun (table, cols) -> DB.declare_index db ~table ~cols)
    [
      ("lineitem", [ "l_orderkey" ]); ("orders", [ "o_orderkey" ]);
      ("part", [ "p_partkey" ]); ("nation", [ "n_nationkey" ]);
      ("region", [ "r_regionkey" ]);
    ];
  let views =
    List.map
      (fun src ->
        let name, spjg = Mv_sql.Parser.parse_view schema src in
        Mv_core.View.create schema ~name spjg)
      exec_views
  in
  List.iter (fun v -> ignore (Mv_engine.Exec.materialize db v)) views;
  let registry = Mv_core.Registry.create schema in
  List.iter (Mv_core.Registry.add_prebuilt registry) views;
  (db, views, registry)

(* A read is an optimization plus the execution of its plan. *)
let words_per_read () =
  let db, _, registry = exec_fixture () in
  let stats = DB.stats db in
  let queries =
    List.map (Mv_sql.Parser.parse_query Mv_tpch.Schema.schema) exec_queries
  in
  let pass () =
    List.iter
      (fun q ->
        let r = Mv_opt.Optimizer.optimize registry stats q in
        ignore
          (Mv_opt.Plan_exec.execute ~stats db q r.Mv_opt.Optimizer.plan))
      queries
  in
  pass ();
  words pass /. float_of_int (List.length queries)

(* A write is one maintained lineitem batch (four inserted copies of
   existing rows, four deletes of distinct original rows) and the
   statistics refresh after it; four warm-up batches, eight measured. *)
let words_per_write () =
  let db, views, _ = exec_fixture () in
  let ivm = Mv_engine.Ivm.create db in
  List.iter (Mv_engine.Ivm.attach ivm) views;
  let stats = ref (DB.stats db) in
  let prng = Mv_util.Prng.create 17 in
  let rows = Array.of_list (DB.table_exn db "lineitem").Mv_engine.Table.rows in
  let pool = Array.of_list (Mv_util.Prng.shuffle prng (Array.to_list rows)) in
  let next = ref 0 in
  let batch () =
    let ins =
      List.init 4 (fun _ -> rows.(Mv_util.Prng.int prng (Array.length rows)))
    in
    let del = List.init 4 (fun j -> pool.(!next + j)) in
    next := !next + 4;
    [ ("lineitem", { Mv_engine.Ivm.ins; del }) ]
  in
  let write b =
    Mv_engine.Ivm.apply ivm b;
    stats := Mv_engine.Ivm.refresh_stats ivm !stats
  in
  List.iter write (List.init 4 (fun _ -> batch ()));
  let measured = List.init 8 (fun _ -> batch ()) in
  words (fun () -> List.iter write measured) /. 8.

(* A figure more than the tolerance over its constant is a regression;
   one more than the tolerance under it means the constant [name] must
   come down to it, so a constant cannot drift far above its figure. *)
let check what ~name words budget =
  if words > budget *. (1. +. tolerance) then
    Alcotest.failf "%.0f minor words per %s, over the budget of %.0f by %.1f%%"
      words what budget
      (100. *. ((words /. budget) -. 1.));
  if words < budget *. (1. -. tolerance) then
    Alcotest.failf
      "%.0f minor words per %s, under the budget of %.0f by %.1f%%: lower %s \
       to %.0f"
      words what budget
      (100. *. (1. -. (words /. budget)))
      name words

let suite =
  [
    ( "budget",
      [
        Alcotest.test_case "minor words per optimization" `Quick (fun () ->
            check "optimization" ~name:"budget"
              (words_per_optimization ~nviews:1000 ())
              budget);
        Alcotest.test_case "minor words per optimization without views"
          `Quick (fun () ->
            check "optimization without views" ~name:"no_view_budget"
              (words_per_optimization ~nviews:0 ())
              no_view_budget);
        Alcotest.test_case "minor words per executed read" `Quick (fun () ->
            check "read" ~name:"read_budget" (words_per_read ()) read_budget);
        Alcotest.test_case "minor words per maintained write" `Quick
          (fun () ->
            check "write" ~name:"write_budget" (words_per_write ()) write_budget);
        Alcotest.test_case "minor words to register 1000 views" `Quick
          (fun () ->
            check "registration" ~name:"register_budget" (words_to_register ())
              register_budget);
        Alcotest.test_case "minor words per registry write" `Quick (fun () ->
            check "registry write" ~name:"mutation_budget"
              (words_per_mutation ()) mutation_budget);
      ] );
  ]
