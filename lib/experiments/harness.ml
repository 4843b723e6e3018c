(** The measurement harness behind section 5's experiments: optimize a
    fixed query batch against the first N of a fixed view population, under
    the four configurations (substitutes on/off x filter tree on/off), and
    collect the counters the paper reports. *)

module Spjg = Mv_relalg.Spjg
module J = Mv_obs.Json

type config = { alt : bool; filter : bool }

let config_name c =
  (if c.alt then "Alt" else "NoAlt")
  ^ "&" ^ if c.filter then "Filter" else "NoFilter"

let all_configs =
  [
    { alt = true; filter = true };
    { alt = false; filter = true };
    { alt = true; filter = false };
    { alt = false; filter = false };
  ]

type workload = {
  schema : Mv_catalog.Schema.t;
  stats : Mv_catalog.Stats.t;
  views : Mv_core.View.t list;  (** the full population, in order *)
  queries : Spjg.t list;
}

(* Build the fixed workload once; view descriptors are shared across all
   runs. *)
let make_workload ?(view_seed = 1001) ?(query_seed = 2002) ?(nviews = 1000)
    ?(nqueries = 200) () : workload =
  let schema = Mv_tpch.Schema.schema in
  let stats = Mv_tpch.Datagen.synthetic_stats () in
  let views =
    List.map
      (fun (name, spjg) ->
        let row_count = Mv_opt.Cost.estimate_view_rows stats spjg in
        Mv_core.View.create ~row_count schema ~name spjg)
      (Mv_workload.Generator.views ~seed:view_seed schema stats nviews)
  in
  let queries = Mv_workload.Generator.queries ~seed:query_seed schema stats nqueries in
  { schema; stats; views; queries }

let take n xs = List.filteri (fun i _ -> i < n) xs

(* The per-level candidate flow recorded by the registry's filter tree:
   one "level" measure (candidates in, out) per level that saw any, in the
   navigation order of the registry's plan, the strong-range check last. *)
let levels (registry : Mv_core.Registry.t) : Measure.t list =
  let count = Mv_obs.Registry.counter_value registry.Mv_core.Registry.obs in
  let plan =
    if registry.Mv_core.Registry.backjoins then
      Mv_core.Filter_tree.backjoin_plan
    else Mv_core.Filter_tree.default_plan
  in
  List.filter_map
    (fun (level, key) ->
      match (count (key ^ ".in"), count (key ^ ".out")) with
      | 0, 0 -> None
      | entered, passed ->
          Some
            (Measure.make "level"
               ~params:[ ("level", J.String level) ]
               ~metrics:[ ("in", J.Int entered); ("out", J.Int passed) ]))
    (List.map
       (fun level ->
         let name = Mv_core.Filter_tree.level_name level in
         (name, "filter_tree.level." ^ name))
       (Mv_core.Filter_tree.plan_levels plan)
    @ [ ("strong-range", "filter_tree.strong_range") ])

(* One grid cell: first [nviews] views, one configuration. With
   [domains > 1] the query batch is sharded over that many OCaml domains
   ({!Pool.map_chunked}) against ONE shared registry/filter tree: every
   query is optimized by exactly one domain, the interners are frozen after
   registry construction so query-side key building is lock-free, lattice
   searches carry per-search visit state, and the obs counters the
   cell reads are atomic — so the counter totals and candidate sets
   are identical to the sequential run by construction (asserted by
   test/test_parallel.ml). *)
let run ?(domains = 1) (w : workload) ~nviews ~(config : config) : Measure.t =
  let registry = Mv_core.Registry.create ~use_filter:config.filter w.schema in
  List.iter (Mv_core.Registry.add_prebuilt registry) (take nviews w.views);
  Mv_relalg.Intern.freeze ();
  let opt_config = { Mv_opt.Optimizer.produce_substitutes = config.alt } in
  let queries = Array.of_list w.queries in
  (* both clocks, read once at each end of the batch *)
  let wall0 = Mv_obs.Instrument.now_wall () and cpu0 = Sys.time () in
  let used =
    Pool.map_chunked ~domains (Array.length queries) (fun i ->
        let r =
          Mv_opt.Optimizer.optimize ~config:opt_config registry w.stats
            queries.(i)
        in
        r.Mv_opt.Optimizer.used_views)
  in
  let wall_time = Mv_obs.Instrument.now_wall () -. wall0
  and cpu_time = Sys.time () -. cpu0 in
  let obs = registry.Mv_core.Registry.obs in
  let count name = J.Int (Mv_obs.Registry.counter_value obs name) in
  (* the histogram lookup is get-or-create, so a phase that never ran
     still yields a (zero) block: the JSON shape is the same in every
     cell, nviews = 0 included *)
  let phases =
    List.map
      (fun p -> (p, Mv_obs.Registry.histogram obs ("optimizer.phase." ^ p)))
      [ "analyze"; "match"; "cost"; "total" ]
  in
  Measure.make "cell"
    ~params:
      [
        ("config", J.String (config_name config));
        ("alt", J.Bool config.alt);
        ("filter", J.Bool config.filter);
        ("nviews", J.Int nviews);
        ("queries", J.Int (List.length w.queries));
        ("domains", J.Int (max 1 domains));
      ]
    ~metrics:
      ([
         ("wall_time_s", J.Float wall_time);
         ("cpu_time_s", J.Float cpu_time);
         (* one match sample per rule invocation: the rule's time *)
         ( "rule_wall_time_s",
           J.Float (Mv_obs.Instrument.sum (List.assoc "match" phases)) );
         ("invocations", count "rule.invocations");
         ("candidates", count "rule.candidates");
         ("substitutes", count "rule.substitutes");
         ("plans_using_views", J.Int (List.length (List.filter Fun.id used)));
       ]
      @ List.map
          (fun (p, h) ->
            ("phases." ^ p ^ ".calls", J.Int (Mv_obs.Instrument.count h)))
          phases)
    ~pcts:(List.map (fun (p, h) -> ("phases." ^ p, Measure.pct_of h)) phases)
    ~subs:[ ("levels", levels registry) ]

(* ---- why-not aggregation ---- *)

(* Aggregate rejection provenance over a workload: every (query, view)
   pair of the batch is attributed — via {!Mv_core.Registry.explain} — to
   "matched", the exact filter-tree stage that pruned the view
   ("filter:<stage>") or the matcher's rejection label
   ("reject:<label>"), and the causes are counted. Sorted by descending
   count, ties by cause name, so the table and its JSON are deterministic. *)
let whynot (w : workload) ~nviews : (string * int) list =
  let registry = Mv_core.Registry.create w.schema in
  List.iter (Mv_core.Registry.add_prebuilt registry) (take nviews w.views);
  Mv_relalg.Intern.freeze ();
  let counts = Hashtbl.create 32 in
  let bump cause =
    Hashtbl.replace counts cause
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts cause))
  in
  List.iter
    (fun q ->
      let qa = Mv_relalg.Analysis.analyze w.schema q in
      List.iter
        (fun (_, expl) ->
          bump
            (match expl with
            | Mv_core.Registry.Matched _ -> "matched"
            | Mv_core.Registry.Filtered stage ->
                "filter:" ^ Mv_core.Filter_tree.stage_name stage
            | Mv_core.Registry.Rejected r ->
                "reject:" ^ Mv_core.Reject.label r))
        (Mv_core.Registry.explain registry qa))
    w.queries;
  Hashtbl.fold (fun cause n acc -> (cause, n) :: acc) counts []
  |> List.sort (fun (c1, n1) (c2, n2) ->
         match compare n2 n1 with 0 -> String.compare c1 c2 | c -> c)

(* ---- the end-to-end execution benchmark (bench --exec) ---- *)

(* Hand-written views guaranteed to match some of the queries below: an
   o_custkey revenue rollup, a quantity-filtered SPJ slice, and a brand
   rollup. *)
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

(* Four queries answerable from the views (exactly or with compensation)
   plus two with no matching view, exercising the join pipeline on base
   tables. *)
let exec_queries =
  [
    ( "q_custrev",
      "select o_custkey, sum(l_extendedprice) as rev from dbo.lineitem, \
       dbo.orders where l_orderkey = o_orderkey group by o_custkey" );
    ( "q_bigcust",
      "select o_custkey, count_big(*) as cnt from dbo.lineitem, \
       dbo.orders where l_orderkey = o_orderkey and o_custkey <= 10 \
       group by o_custkey" );
    ( "q_qty",
      "select l_orderkey, l_extendedprice from dbo.lineitem where \
       l_quantity >= 30" );
    ( "q_brand",
      "select p_brand, sum(l_quantity) as sq from dbo.lineitem, dbo.part \
       where l_partkey = p_partkey group by p_brand" );
    ( "q_dims",
      "select n_name, count_big(*) as cnt from dbo.supplier, dbo.nation, \
       dbo.region where s_nationkey = n_nationkey and n_regionkey = \
       r_regionkey group by n_name" );
    ( "q_pricey",
      "select o_orderkey, p_name from dbo.lineitem, dbo.orders, dbo.part \
       where l_orderkey = o_orderkey and l_partkey = p_partkey and \
       p_size >= 40 and o_totalprice >= 400000" );
  ]

(* One scale point of the end-to-end benchmark: generate data, register
   and materialize the views, compute statistics (with histograms) from
   the actual contents, optimize the query set with and without view
   substitutes, then time plan execution in the two (rewrite off/on)
   cells. Every cell's result is checked bag-equal against direct
   execution of the original query; plans are computed outside the timing
   loop, so the cells measure execution only. *)
let exec_bench ?(seed = 42) ?(reps = 5) ~scale () : Measure.t =
  let schema = Mv_tpch.Schema.schema in
  let db = Mv_tpch.Datagen.generate ~seed ~scale () in
  let base_rows =
    Hashtbl.fold
      (fun name _ acc -> acc + Mv_engine.Database.row_count db name)
      db.Mv_engine.Database.tables 0
  in
  (* primary-key indexes, which narrow a scanned table's rows *)
  List.iter
    (fun (table, cols) -> Mv_engine.Database.declare_index db ~table ~cols)
    [
      ("lineitem", [ "l_orderkey" ]);
      ("orders", [ "o_orderkey" ]);
      ("part", [ "p_partkey" ]);
      ("nation", [ "n_nationkey" ]);
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
  (* statistics AFTER materialization, so the views get histograms too *)
  let stats = Mv_engine.Database.stats db in
  let registry = Mv_core.Registry.create schema in
  List.iter (Mv_core.Registry.add_prebuilt registry) views;
  let queries =
    List.map
      (fun (n, src) -> (n, Mv_sql.Parser.parse_query schema src))
      exec_queries
  in
  let gval = Mv_obs.Registry.counter_value Mv_obs.Registry.global in
  let missing0 = gval "cost.stats.missing" in
  let hash0 = gval "exec.join.strategy.hash" in
  let opt cfg =
    List.map (fun (_, q) -> Mv_opt.Optimizer.optimize ~config:cfg registry stats q) queries
  in
  let rw = opt Mv_opt.Optimizer.default_config in
  let nr = opt { Mv_opt.Optimizer.produce_substitutes = false } in
  let plans_with_views =
    List.fold_left
      (fun n (r : Mv_opt.Optimizer.result) ->
        if r.Mv_opt.Optimizer.used_views then n + 1 else n)
      0 rw
  in
  (* reference results: direct execution of the original query *)
  let direct = List.map (fun (_, q) -> Mv_engine.Exec.execute db q) queries in
  let equivalent = ref true in
  let exec (_, q) (r : Mv_opt.Optimizer.result) =
    Mv_opt.Plan_exec.execute ~stats db q r.Mv_opt.Optimizer.plan
  in
  let grid = [ false; true ] in
  (* correctness first (also a discarded warmup pass per cell) *)
  List.iter
    (fun rewrite ->
      List.iter2
        (fun got want ->
          if not (Mv_engine.Relation.same_bag got want) then
            equivalent := false)
        (List.map2 exec queries (if rewrite then rw else nr))
        direct)
    grid;
  (* the cells' passes are interleaved so GC and allocator drift over the
     run is shared evenly instead of biasing whichever cell runs last *)
  let acc = Array.make (List.length grid) 0.0 in
  for _ = 1 to reps do
    List.iteri
      (fun i rewrite ->
        let plans = if rewrite then rw else nr in
        let t0 = Mv_obs.Instrument.now_wall () in
        List.iter2 (fun qp rp -> ignore (exec qp rp)) queries plans;
        acc.(i) <- acc.(i) +. (Mv_obs.Instrument.now_wall () -. t0))
      grid
  done;
  let ratio a b = if b > 0.0 then a /. b else 1.0 in
  (* per-node estimated-vs-actual rows, from the rewrite arm *)
  let nodes =
    List.concat
      (List.map2
         (fun (qn, q) (r : Mv_opt.Optimizer.result) ->
           let _, reports =
             Mv_opt.Plan_exec.execute_report ~stats db q
               r.Mv_opt.Optimizer.plan
           in
           List.map
             (fun (nr : Mv_opt.Plan_exec.node_report) ->
               Measure.make "node"
                 ~params:
                   [
                     ("query", J.String qn);
                     ("node", J.String nr.Mv_opt.Plan_exec.nr_label);
                     ("strategy", J.String nr.Mv_opt.Plan_exec.nr_strategy);
                   ]
                 ~metrics:
                   [
                     ("est_rows", J.Float nr.Mv_opt.Plan_exec.nr_est);
                     ("actual_rows", J.Int nr.Mv_opt.Plan_exec.nr_actual);
                   ])
             reports)
         queries rw)
  in
  Measure.make "exec"
    ~params:
      [
        ("scale", J.Int scale);
        ("rows", J.Int base_rows);
        ("views", J.Int (List.length views));
        ("queries", J.Int (List.length queries));
        ("reps", J.Int reps);
      ]
    ~metrics:
      [
        ("rewrite_speedup", J.Float (ratio acc.(0) acc.(1)));
        ("plans_with_views", J.Int plans_with_views);
        ("stats_missing", J.Int (gval "cost.stats.missing" - missing0));
        ("strategies.hash", J.Int (gval "exec.join.strategy.hash" - hash0));
      ]
    ~verdicts:[ ("equivalent", !equivalent) ]
    ~subs:
      [
        ( "cells",
          List.mapi
            (fun i rewrite ->
              Measure.make "cell"
                ~params:[ ("rewrite", J.Bool rewrite) ]
                ~metrics:[ ("wall_s", J.Float acc.(i)) ])
            grid );
        ("nodes", nodes);
      ]

(* ---- maintenance benchmark (bench --maintain) ------------------------ *)

(* Near-equality of view contents: float columns compare within a relative
   tolerance, because incremental SUM maintenance reorders float additions
   and may drift by rounding from a from-scratch fold (DESIGN.md §12);
   everything else is exact. *)
let value_close a b =
  match (a, b) with
  | Mv_base.Value.Float x, Mv_base.Value.Float y ->
      x = y
      || abs_float (x -. y) <= 1e-9 *. (abs_float x +. abs_float y +. 1.0)
  | _ -> Mv_base.Value.order a b = 0

let bag_close rows_a rows_b =
  List.length rows_a = List.length rows_b
  && List.for_all2
       (fun (x : Mv_base.Value.t array) y ->
         Array.length x = Array.length y
         && Array.for_all2 value_close x y)
       (List.sort Mv_engine.Relation.row_order rows_a)
       (List.sort Mv_engine.Relation.row_order rows_b)

(* A random write to a non-empty table: duplicate-reinserts of existing
   rows (foreign keys keep holding, join deltas fire), then deletes of
   distinct existing row instances. The draw order is part of the
   contract: a seed fixes every bench and CLI write sequence. *)
let random_delta rng rows ~nrows : Mv_engine.Ivm.delta =
  let n = List.length rows in
  let n_ins = max 1 (nrows / 2) in
  let n_del = min (max 0 (nrows - n_ins)) (n / 2) in
  let ins = List.init n_ins (fun _ -> List.nth rows (Mv_util.Prng.int rng n)) in
  let del = take n_del (Mv_util.Prng.shuffle rng rows) in
  { Mv_engine.Ivm.ins; del }

(* One (nviews, batch size) cell: materialize the first [nviews] pool
   views over two copies of the generated database, then push the same
   write batches ({!random_delta} of one randomly chosen source table)
   through incremental maintenance on one copy and through full
   rematerialization of the affected views on the other, timing each
   batch in both arms. *)
let maintain_cell ?obs ~seed ~batches ~db0 ~stats0 ~pool ~nviews ~batch_rows ()
    : Measure.t =
  let views = take nviews pool in
  let dba = Mv_engine.Database.copy db0 in
  let dbb = Mv_engine.Database.copy db0 in
  List.iter (fun v -> ignore (Mv_engine.Exec.materialize dba v)) views;
  List.iter (fun v -> ignore (Mv_engine.Exec.materialize dbb v)) views;
  let ivm = Mv_engine.Ivm.create dba in
  List.iter (Mv_engine.Ivm.attach ivm) views;
  let sources =
    List.sort_uniq compare
      (List.concat_map
         (fun (v : Mv_core.View.t) ->
           Mv_util.Sset.elements v.Mv_core.View.source_tables)
         views)
  in
  let rng = Mv_util.Prng.create (seed + (7919 * nviews) + batch_rows) in
  let delta_h = Mv_obs.Instrument.histogram () in
  let remat_h = Mv_obs.Instrument.histogram () in
  let rows_written = ref 0 in
  for _ = 1 to batches do
    if sources <> [] then begin
      let tn = Mv_util.Prng.pick rng sources in
      let rows = (Mv_engine.Database.table_exn dba tn).Mv_engine.Table.rows in
      if rows <> [] then begin
        let ({ Mv_engine.Ivm.ins; del } as delta) =
          random_delta rng rows ~nrows:batch_rows
        in
        let written = List.length ins + List.length del in
        rows_written := !rows_written + written;
        (* observe both into the cell-local histograms (per-cell stats)
           and, when given, a shared obs registry the timeline sampler
           windows over *)
        let timed h name f =
          let t0 = Mv_obs.Instrument.now_wall () in
          f ();
          let d = Mv_obs.Instrument.now_wall () -. t0 in
          Mv_obs.Instrument.observe h d;
          match obs with
          | Some o ->
              Mv_obs.Instrument.observe (Mv_obs.Registry.histogram o name) d
          | None -> ()
        in
        (match obs with
        | Some o ->
            Mv_obs.Instrument.incr
              (Mv_obs.Registry.counter o "maintain.batches");
            Mv_obs.Instrument.add
              (Mv_obs.Registry.counter o "maintain.rows_written")
              written
        | None -> ());
        timed delta_h "maintain.delta" (fun () ->
            Mv_engine.Ivm.apply ivm [ (tn, delta) ]);
        timed remat_h "maintain.remat" (fun () ->
            Mv_engine.Database.write dbb [ (tn, delta) ];
            List.iter
              (fun (v : Mv_core.View.t) ->
                if Mv_util.Sset.mem tn v.Mv_core.View.source_tables then
                  ignore (Mv_engine.Exec.materialize dbb v))
              views)
      end
    end
  done;
  let equivalent =
    List.for_all
      (fun (v : Mv_core.View.t) ->
        bag_close
          (Mv_engine.Database.table_exn dba v.Mv_core.View.name)
            .Mv_engine.Table.rows
          (Mv_engine.Database.table_exn dbb v.Mv_core.View.name)
            .Mv_engine.Table.rows)
      views
  in
  (* every view whose changed rows passed the rebuild threshold gets an
     entry equal to a rebuild from its maintained contents, its deferred
     columns forced, and every other entry is the one passed in *)
  let dirty = Mv_engine.Ivm.dirty_views ivm in
  let stats' = Mv_engine.Ivm.refresh_stats ivm stats0 in
  let stats_fresh =
    List.for_all
      (fun name ->
        match Mv_catalog.Stats.table stats' name with
        | Some ts ->
            Mv_catalog.Stats.equal_table ts
              (Mv_engine.Database.table_stats dba name)
        | None -> false)
      dirty
    && List.for_all
         (fun (name, ts) ->
           List.mem name dirty
           ||
           match Mv_catalog.Stats.table stats0 name with
           | Some ts0 -> ts0 == ts
           | None -> false)
         (Mv_catalog.Stats.bindings stats')
  in
  let delta_wall = Mv_obs.Instrument.sum delta_h in
  let remat_wall = Mv_obs.Instrument.sum remat_h in
  Measure.make "cell"
    ~params:[ ("nviews", J.Int nviews); ("batch_rows", J.Int batch_rows) ]
    ~metrics:
      [
        ("batches", J.Int (Mv_obs.Instrument.count delta_h));
        ("rows_written", J.Int !rows_written);
        ("delta_wall_s", J.Float delta_wall);
        ("remat_wall_s", J.Float remat_wall);
        ( "speedup",
          J.Float (if delta_wall > 0.0 then remat_wall /. delta_wall else 1.0) );
      ]
    ~pcts:
      [ ("delta", Measure.pct_of delta_h); ("remat", Measure.pct_of remat_h) ]
    ~verdicts:[ ("equivalent", equivalent); ("stats_fresh", stats_fresh) ]

let maintain ?(seed = 42) ?(batches = 12) ?(scale = 1) ~nviews_list
    ~batch_sizes () : Measure.t =
  let schema = Mv_tpch.Schema.schema in
  let db0 = Mv_tpch.Datagen.generate ~seed ~scale () in
  let base_rows =
    Hashtbl.fold
      (fun name _ acc -> acc + Mv_engine.Database.row_count db0 name)
      db0.Mv_engine.Database.tables 0
  in
  (* statistics from the actual contents drive both the view generator's
     cardinality bands and the maintained-view stats-refresh check *)
  let stats0 = Mv_engine.Database.stats db0 in
  let pool_n = List.fold_left max 1 nviews_list in
  let pool =
    List.filter_map
      (fun (name, spjg) ->
        match Mv_core.View.create schema ~name spjg with
        | v -> Some v
        | exception Mv_core.View.Rejected _ -> None)
      (Mv_workload.Generator.views ~seed:(seed + 7) schema stats0 pool_n)
  in
  (* the maintenance timeline: a scoped obs registry every cell reports
     into, windowed by a dedicated sampler domain across the whole grid *)
  let obs = Mv_obs.Registry.create () in
  let tl = Mv_obs.Timeline.create obs in
  let sampler = Mv_obs.Timeline.start ~period:0.05 tl in
  let cells =
    List.concat_map
      (fun nviews ->
        List.map
          (fun batch_rows ->
            maintain_cell ~obs ~seed ~batches ~db0 ~stats0 ~pool ~nviews
              ~batch_rows ())
          batch_sizes)
      nviews_list
  in
  Mv_obs.Timeline.stop sampler;
  let all k = List.for_all (fun c -> Measure.verdict c k) cells in
  Measure.make "maintenance"
    ~params:
      [
        ("scale", J.Int scale);
        ("base_rows", J.Int base_rows);
        ("pool", J.Int (List.length pool));
        ("batches", J.Int batches);
      ]
    ~metrics:[ ("timeline", Mv_obs.Timeline.to_json tl) ]
    ~verdicts:
      [ ("equivalent", all "equivalent"); ("stats_fresh", all "stats_fresh") ]
    ~subs:[ ("cells", cells) ]

(* The full grid for the figures. A discarded warmup run first: the very
   first cell otherwise pays one-time allocation/GC costs. *)
let sweep ?(domains = 1) (w : workload) ~nviews_list ~configs : Measure.t list
    =
  (match configs with
  | c :: _ -> ignore (run w ~nviews:0 ~config:c)
  | [] -> ());
  List.concat_map
    (fun nviews ->
      List.map (fun config -> run w ~domains ~nviews ~config) configs)
    nviews_list

(* The counters that must not move with the domain count: only the
   timings may differ between cells of one scaling sweep. *)
let counters_agree (cells : Measure.t list) =
  let counters m =
    ( List.map (Measure.int m)
        [ "candidates"; "substitutes"; "plans_using_views" ],
      List.assoc "levels" m.Measure.subs )
  in
  match cells with
  | [] -> true
  | m0 :: rest -> List.for_all (fun m -> counters m = counters m0) rest

(* Domain-scaling sweep: the same (nviews, Alt&Filter) cell measured at
   each domain count, after one discarded warmup; speedup is
   wall(1 domain) / wall(N). *)
let scaling (w : workload) ~nviews ~domains_list : Measure.t =
  let config = { alt = true; filter = true } in
  ignore (run w ~nviews ~config);
  let cells =
    List.map (fun domains -> run w ~domains ~nviews ~config) domains_list
  in
  let wall m = Measure.float m "wall_time_s" in
  let base = List.find_opt (fun m -> Measure.int m "domains" = 1) cells in
  let speedup m =
    match base with Some b when wall m > 0.0 -> wall b /. wall m | _ -> 1.0
  in
  Measure.make "scaling"
    ~params:
      [ ("nviews", J.Int nviews); ("queries", J.Int (List.length w.queries)) ]
    ~verdicts:[ ("counters_agree", counters_agree cells) ]
    ~subs:
      [
        ( "rows",
          List.map
            (fun m ->
              let metric k = (k, List.assoc k m.Measure.metrics) in
              Measure.make "row"
                ~params:[ ("domains", J.Int (Measure.int m "domains")) ]
                ~metrics:
                  [
                    metric "wall_time_s";
                    metric "cpu_time_s";
                    ("speedup", J.Float (speedup m));
                    metric "candidates";
                    metric "substitutes";
                    metric "plans_using_views";
                  ])
            cells );
      ]

(* ---- the view-advisor benchmark (bench --advise) ---- *)

let advise ?(seed = 0) ?(trials = 5) ?(write_fraction = 0.1)
    ?(budget_frac = 0.05) ~candidates ~nqueries () : Measure.t =
  let t0 = Mv_obs.Instrument.now_wall () in
  (* a different query workload per candidate scale, so the scales are
     independent observations *)
  let w =
    make_workload ~nviews:0 ~query_seed:(2002 + (17 * seed) + candidates)
      ~nqueries ()
  in
  let mined = Mv_workload.Miner.mine w.queries in
  let defs = take candidates (Mv_workload.Miner.definitions mined) in
  (* the storage budget admits a fixed fraction of the whole pool, so
     selection is a real choice at every scale *)
  let size_of (name, spjg) =
    float_of_int (Mv_opt.Cost.estimate_view_rows ~name w.stats spjg)
  in
  let total_size = List.fold_left (fun acc d -> acc +. size_of d) 0.0 defs in
  let budget = budget_frac *. total_size in
  let config =
    { Mv_opt.Advisor.default_config with budget; write_fraction }
  in
  let advice =
    Mv_opt.Advisor.advise ~config w.schema w.stats ~candidates:defs
      ~queries:w.queries
  in
  (* evaluation is the real optimizer, not the advisor's model: total
     workload cost = summed best-plan cost under the registered set plus
     the same maintenance term both arms are charged *)
  let eval defs =
    let registry = Mv_core.Registry.create w.schema in
    let maint = ref 0.0 in
    List.iter
      (fun (name, spjg) ->
        let rows = Mv_opt.Cost.estimate_view_rows ~name w.stats spjg in
        match Mv_core.Registry.add_view registry ~row_count:rows ~name spjg with
        | (_ : Mv_core.View.t) ->
            maint :=
              !maint
              +. Mv_opt.Advisor.maintenance_cost config w.stats spjg ~rows
                   ~nqueries:(List.length w.queries)
        | exception Mv_core.View.Rejected _ -> ()
        | exception Mv_core.Registry.Duplicate_view _ -> ())
      defs;
    let cost =
      List.fold_left
        (fun acc q ->
          acc +. (Mv_opt.Optimizer.optimize registry w.stats q).Mv_opt.Optimizer.cost)
        0.0 w.queries
    in
    (cost +. !maint, registry)
  in
  let cost_none, _ = eval [] in
  let advised_defs =
    List.map (fun p -> (p.Mv_opt.Advisor.name, p.Mv_opt.Advisor.spjg)) advice.Mv_opt.Advisor.picks
  in
  let cost_advised, advised_registry = eval advised_defs in
  (* random-equal-budget baselines: shuffle the pool, fill to the budget *)
  let random_set t =
    let rng = Mv_util.Prng.create ((7919 * (t + 1)) + seed) in
    let shuffled = Mv_util.Prng.shuffle rng defs in
    let used = ref 0.0 in
    List.filter
      (fun d ->
        let s = size_of d in
        if !used +. s <= budget then (
          used := !used +. s;
          true)
        else false)
      shuffled
  in
  let cost_random =
    List.init trials (fun t -> fst (eval (random_set t)))
  in
  (* per-query optimize latency under the advised registry *)
  let h = Mv_obs.Instrument.histogram () in
  let plans_using_views =
    List.fold_left
      (fun n q ->
        let r =
          Mv_obs.Instrument.time_hist h (fun () ->
              Mv_opt.Optimizer.optimize advised_registry w.stats q)
        in
        if r.Mv_opt.Optimizer.used_views then n + 1 else n)
      0 w.queries
  in
  let wall = Mv_obs.Instrument.now_wall () -. t0 in
  let tol = 1e-9 *. (1.0 +. cost_none) in
  Measure.make "advise"
    ~params:
      [
        ("candidates", J.Int candidates);
        ("queries", J.Int (List.length w.queries));
        ("budget_rows", J.Float budget);
      ]
    ~metrics:
      [
        ("mined", J.Int (List.length mined));
        ("used_rows", J.Float advice.Mv_opt.Advisor.used_budget);
        ("picks", J.Int (List.length advice.Mv_opt.Advisor.picks));
        ("considered", J.Int advice.Mv_opt.Advisor.considered);
        ("rejected", J.Int advice.Mv_opt.Advisor.rejected);
        ("cost_none", J.Float cost_none);
        ("cost_advised", J.Float cost_advised);
        ("cost_random", J.List (List.map (fun c -> J.Float c) cost_random));
        ( "cost_random_best",
          J.Float (List.fold_left Float.min infinity cost_random) );
        ("model_before", J.Float advice.Mv_opt.Advisor.cost_before);
        ("model_after", J.Float advice.Mv_opt.Advisor.cost_after);
        ("plans_using_views", J.Int plans_using_views);
        ("wall_s", J.Float wall);
      ]
    ~pcts:[ ("latency", Measure.pct_of h) ]
    ~verdicts:
      [
        ( "beats_random",
          List.for_all (fun c -> cost_advised <= c +. tol) cost_random );
        ("within_budget", advice.Mv_opt.Advisor.used_budget <= budget +. tol);
      ]
