(** The measurement harness behind section 5's experiments: optimize a
    fixed query batch against the first N of a fixed view population, under
    the four configurations (substitutes on/off x filter tree on/off), and
    collect the counters the paper reports. *)

module Spjg = Mv_relalg.Spjg

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

type level_flow = { level : string; entered : int; passed : int }

type phase_stats = {
  phase : string;
  calls : int;
  p50 : float;
  p90 : float;
  p99 : float;  (** interpolated quantiles of per-call wall seconds *)
}

type measurement = {
  nviews : int;
  config : config;
  queries : int;
  domains : int;
      (** OCaml domains the query batch was sharded over (1 = sequential) *)
  wall_time : float;
      (** elapsed seconds for the whole query batch — what the paper's
          figures report *)
  cpu_time : float;  (** CPU seconds for the same batch *)
  rule_wall_time : float;  (** elapsed seconds inside the view-matching rule *)
  rule_cpu_time : float;
  invocations : int;
  candidates : int;
  matched : int;
  substitutes : int;
  plans_using_views : int;
  cost_bound_prunes : int;
      (** substitute leaves abandoned by branch-and-bound cost-bound
          pruning ([opt.prune.cost_bound]), summed over the batch *)
  level_flow : level_flow list;
      (** candidates entering/surviving each filter-tree level, summed over
          the batch (empty in the NoFilter configurations) *)
  phases : phase_stats list;
      (** per-phase optimizer latency percentiles over the batch, from the
          [optimizer.phase.*] histograms *)
}

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

(* The per-level candidate flow recorded by the registry's filter tree,
   in the navigation order of the registry's plan. *)
let level_flow_of (registry : Mv_core.Registry.t) : level_flow list =
  let obs = registry.Mv_core.Registry.obs in
  let plan =
    if registry.Mv_core.Registry.backjoins then
      Mv_core.Filter_tree.backjoin_plan
    else Mv_core.Filter_tree.default_plan
  in
  let flows =
    List.map
      (fun level ->
        let name = Mv_core.Filter_tree.level_name level in
        {
          level = name;
          entered =
            Mv_obs.Registry.counter_value obs
              ("filter_tree.level." ^ name ^ ".in");
          passed =
            Mv_obs.Registry.counter_value obs
              ("filter_tree.level." ^ name ^ ".out");
        })
      (Mv_core.Filter_tree.plan_levels plan)
  in
  let strong =
    {
      level = "strong-range";
      entered = Mv_obs.Registry.counter_value obs "filter_tree.strong_range.in";
      passed = Mv_obs.Registry.counter_value obs "filter_tree.strong_range.out";
    }
  in
  List.filter (fun f -> f.entered > 0 || f.passed > 0) (flows @ [ strong ])

let phase_names = [ "analyze"; "match"; "cost"; "total" ]

(* The per-phase optimizer latency percentiles, read from the
   [optimizer.phase.*] histograms the optimizer feeds on every call. The
   histogram lookup is get-or-create, so a phase that never ran still
   yields a (zero) row — the JSON shape stays stable across every
   measurement cell, including nviews = 0. *)
let phases_of (registry : Mv_core.Registry.t) : phase_stats list =
  let obs = registry.Mv_core.Registry.obs in
  List.map
    (fun name ->
      let h = Mv_obs.Registry.histogram obs ("optimizer.phase." ^ name) in
      {
        phase = name;
        calls = Mv_obs.Instrument.count h;
        p50 = Mv_obs.Instrument.quantile h 0.5;
        p90 = Mv_obs.Instrument.quantile h 0.9;
        p99 = Mv_obs.Instrument.quantile h 0.99;
      })
    phase_names

(* One measurement: first [nviews] views, one configuration. With
   [domains > 1] the query batch is sharded over that many OCaml domains
   ({!Pool.map_chunked}) against ONE shared registry/filter tree: every
   query is optimized by exactly one domain, the interners are frozen after
   registry construction so query-side key building is lock-free, lattice
   searches carry per-search visit state, and the obs counters the
   measurement reads are atomic — so the counter totals and candidate sets
   are identical to the sequential run by construction (asserted by
   test/test_parallel.ml). *)
let run ?(domains = 1) (w : workload) ~nviews ~(config : config) : measurement
    =
  let registry = Mv_core.Registry.create ~use_filter:config.filter w.schema in
  List.iter (Mv_core.Registry.add_prebuilt registry) (take nviews w.views);
  Mv_relalg.Intern.freeze ();
  let opt_config =
    { Mv_opt.Optimizer.default_config with produce_substitutes = config.alt }
  in
  let queries = Array.of_list w.queries in
  let span = Mv_obs.Instrument.enter () in
  let used =
    Pool.map_chunked ~domains (Array.length queries) (fun i ->
        let r =
          Mv_opt.Optimizer.optimize ~config:opt_config registry w.stats
            queries.(i)
        in
        r.Mv_opt.Optimizer.used_views)
  in
  let wall_time, cpu_time = Mv_obs.Instrument.elapsed span in
  let plans_using_views =
    List.fold_left (fun n u -> if u then n + 1 else n) 0 used
  in
  let s = Mv_core.Registry.stats registry in
  let rule_timer =
    Mv_obs.Registry.timer registry.Mv_core.Registry.obs "rule.time"
  in
  {
    nviews;
    config;
    queries = List.length w.queries;
    domains = max 1 domains;
    wall_time;
    cpu_time;
    rule_wall_time = Mv_obs.Instrument.wall rule_timer;
    rule_cpu_time = Mv_obs.Instrument.cpu rule_timer;
    invocations = s.Mv_core.Registry.invocations;
    candidates = s.Mv_core.Registry.candidates;
    matched = s.Mv_core.Registry.matched;
    substitutes = s.Mv_core.Registry.substitutes;
    plans_using_views;
    cost_bound_prunes =
      Mv_obs.Registry.counter_value registry.Mv_core.Registry.obs
        "opt.prune.cost_bound";
    level_flow = level_flow_of registry;
    phases = phases_of registry;
  }

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

(* ---- the serving benchmark (dynamic registry + match/plan cache) ---- *)

type serving_measurement = {
  s_nviews : int;
  s_queries : int;
  s_passes : int;  (** timed warm passes *)
  s_domains : int;
  s_capacity : int;
  cold_wall : float;  (** seconds for the first (cache-filling) pass *)
  warm_wall : float;  (** per-pass average over the warm passes *)
  warm_speedup : float;  (** [cold_wall /. warm_wall] *)
  hit_rate : float;
      (** plan-layer hits during the warm passes / plan lookups issued *)
  match_hits : int;
  match_misses : int;
  match_evictions : int;
  match_invalidations : int;
  plan_hits : int;
  plan_misses : int;
  plan_evictions : int;
  plan_invalidations : int;  (** all counters: totals over the whole run *)
  warm_identical : bool;
      (** every warm pass returned byte-identical plans to the cold pass *)
  churn_invalidations : int;
      (** cache invalidations observed after the drop and the re-add *)
  churn_consistent : bool;
      (** after each mutation the cached pass is byte-identical to an
          uncached pass against the same (mutated) registry *)
  churn_no_stale : bool;
      (** no post-drop plan references the dropped view *)
}

(* Repeated-query serving against one registry and one match/plan cache:
   a cold pass fills the cache, [passes] warm passes measure the hit path,
   then a view drop and a re-add verify the epoch protocol end to end —
   the invalidation counters move and the cached results stay byte-equal
   to uncached optimization against the same registry. *)
let serving ?(domains = 1) ?(passes = 3) ?(capacity = 1024) (w : workload)
    ~nviews : serving_measurement =
  let registry = Mv_core.Registry.create w.schema in
  let views = take nviews w.views in
  List.iter (Mv_core.Registry.add_prebuilt registry) views;
  Mv_relalg.Intern.freeze ();
  let cache = Mv_opt.Match_cache.create ~capacity registry in
  let obs = registry.Mv_core.Registry.obs in
  let cval name = Mv_obs.Registry.counter_value obs name in
  let queries = Array.of_list w.queries in
  let nq = Array.length queries in
  let pass ?cache () =
    let span = Mv_obs.Instrument.enter () in
    let plans =
      Pool.map_chunked ~domains nq (fun i ->
          let r =
            Mv_opt.Optimizer.optimize ?cache registry w.stats queries.(i)
          in
          ( Mv_opt.Plan.to_string r.Mv_opt.Optimizer.plan,
            Mv_opt.Plan.views_used r.Mv_opt.Optimizer.plan ))
    in
    let wall, _ = Mv_obs.Instrument.elapsed span in
    (wall, plans)
  in
  let cold_wall, cold_plans = pass ~cache () in
  let hits_after_cold = cval "cache.plan.hits" in
  let passes = max 1 passes in
  let warm = List.init passes (fun _ -> pass ~cache ()) in
  let warm_wall =
    List.fold_left (fun acc (wl, _) -> acc +. wl) 0.0 warm
    /. float_of_int passes
  in
  let warm_identical =
    List.for_all (fun (_, plans) -> plans = cold_plans) warm
  in
  let warm_hits = cval "cache.plan.hits" - hits_after_cold in
  let hit_rate =
    if nq = 0 then 0.0 else float_of_int warm_hits /. float_of_int (nq * passes)
  in
  (* churn: drop one view, then add it back; after each mutation the
     cached pass must agree byte-for-byte with an uncached one against
     the same registry, and the invalidation counters must move *)
  let inval () =
    cval "cache.plan.invalidations" + cval "cache.match.invalidations"
  in
  let inval_before = inval () in
  let check_churn mutate =
    mutate ();
    let _, cached = pass ~cache () in
    let _, direct = pass () in
    cached = direct
  in
  let consistent_after_drop, no_stale, consistent_after_readd =
    match views with
    | [] -> (true, true, true)
    | v :: _ ->
        let name = v.Mv_core.View.name in
        let ok_drop =
          check_churn (fun () -> Mv_core.Registry.remove_view registry name)
        in
        let no_stale =
          (* re-check the post-drop cached pass via the cache itself *)
          let _, plans = pass ~cache () in
          List.for_all (fun (_, used) -> not (List.mem name used)) plans
        in
        let ok_readd =
          check_churn (fun () -> Mv_core.Registry.add_prebuilt registry v)
        in
        (ok_drop, no_stale, ok_readd)
  in
  {
    s_nviews = nviews;
    s_queries = nq;
    s_passes = passes;
    s_domains = max 1 domains;
    s_capacity = capacity;
    cold_wall;
    warm_wall;
    warm_speedup = (if warm_wall > 0.0 then cold_wall /. warm_wall else 1.0);
    hit_rate;
    match_hits = cval "cache.match.hits";
    match_misses = cval "cache.match.misses";
    match_evictions = cval "cache.match.evictions";
    match_invalidations = cval "cache.match.invalidations";
    plan_hits = cval "cache.plan.hits";
    plan_misses = cval "cache.plan.misses";
    plan_evictions = cval "cache.plan.evictions";
    plan_invalidations = cval "cache.plan.invalidations";
    warm_identical;
    churn_invalidations = inval () - inval_before;
    churn_consistent = consistent_after_drop && consistent_after_readd;
    churn_no_stale = no_stale;
  }

(* ---- the end-to-end execution benchmark (bench --exec) ---- *)

type exec_cell = { xc_rewrite : bool; xc_adaptive : bool; xc_wall : float }

type exec_node = {
  xn_query : string;
  xn_label : string;
  xn_strategy : string;
  xn_est : float;
  xn_actual : int;
}

type exec_measurement = {
  x_scale : int;
  x_rows : int;
  x_views : int;
  x_queries : int;
  x_reps : int;
  x_cells : exec_cell list;
  x_rewrite_speedup : float;
  x_adaptive_speedup : float;
  x_plans_with_views : int;
  x_prunes : int;
  x_stats_missing : int;
  x_equivalent : bool;
  x_strategies : (string * int) list;
  x_nodes : exec_node list;
}

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
   plus two with no matching view, exercising the adaptive join pipeline
   on base tables. *)
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
   substitutes, then time plan execution in the four (rewrite x adaptive)
   cells. Every cell's result is checked bag-equal against direct legacy
   execution of the original query; plans are computed outside the timing
   loop, so the cells measure execution only. *)
let exec_bench ?(seed = 42) ?(reps = 5) ~scale () : exec_measurement =
  let schema = Mv_tpch.Schema.schema in
  let db = Mv_tpch.Datagen.generate ~seed ~scale () in
  let base_rows =
    Hashtbl.fold
      (fun name _ acc -> acc + Mv_engine.Database.row_count db name)
      db.Mv_engine.Database.tables 0
  in
  (* primary-key indexes give the adaptive executor its INLJ option *)
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
  let strat0 =
    List.map
      (fun k -> (k, gval ("exec.join.strategy." ^ k)))
      [ "hash"; "nlj"; "inlj" ]
  in
  let opt cfg =
    List.map (fun (_, q) -> Mv_opt.Optimizer.optimize ~config:cfg registry stats q) queries
  in
  let rw = opt Mv_opt.Optimizer.default_config in
  let nr =
    opt
      { Mv_opt.Optimizer.default_config with produce_substitutes = false }
  in
  let plans_with_views =
    List.fold_left
      (fun n (r : Mv_opt.Optimizer.result) ->
        if r.Mv_opt.Optimizer.used_views then n + 1 else n)
      0 rw
  in
  let prunes =
    Mv_obs.Registry.counter_value registry.Mv_core.Registry.obs
      "opt.prune.cost_bound"
  in
  (* reference results: the legacy executor straight off the query *)
  let direct = List.map (fun (_, q) -> Mv_engine.Exec.execute db q) queries in
  let equivalent = ref true in
  let exec ~adaptive (_, q) (r : Mv_opt.Optimizer.result) =
    if adaptive then
      Mv_opt.Plan_exec.execute ~adaptive:true ~stats db q
        r.Mv_opt.Optimizer.plan
    else Mv_opt.Plan_exec.execute ~force_hash:true db q r.Mv_opt.Optimizer.plan
  in
  let grid = [ (false, false); (false, true); (true, false); (true, true) ] in
  (* correctness first (also a discarded warmup pass per cell) *)
  List.iter
    (fun (rewrite, adaptive) ->
      List.iter2
        (fun got want ->
          if not (Mv_engine.Relation.same_bag got want) then
            equivalent := false)
        (List.map2 (exec ~adaptive) queries (if rewrite then rw else nr))
        direct)
    grid;
  (* the cells' passes are interleaved so GC and allocator drift over the
     run is shared evenly instead of biasing whichever cell runs last *)
  let acc = Array.make (List.length grid) 0.0 in
  for _ = 1 to reps do
    List.iteri
      (fun i (rewrite, adaptive) ->
        let plans = if rewrite then rw else nr in
        let span = Mv_obs.Instrument.enter () in
        List.iter2 (fun qp rp -> ignore (exec ~adaptive qp rp)) queries plans;
        let wall, _ = Mv_obs.Instrument.elapsed span in
        acc.(i) <- acc.(i) +. wall)
      grid
  done;
  let cells =
    List.mapi
      (fun i (rewrite, adaptive) ->
        { xc_rewrite = rewrite; xc_adaptive = adaptive; xc_wall = acc.(i) })
      grid
  in
  let wall ~rewrite ~adaptive =
    match
      List.find_opt
        (fun c -> c.xc_rewrite = rewrite && c.xc_adaptive = adaptive)
        cells
    with
    | Some c -> c.xc_wall
    | None -> 0.0
  in
  let ratio a b = if b > 0.0 then a /. b else 1.0 in
  (* per-node estimated-vs-actual rows, from the rewrite+adaptive arm *)
  let nodes =
    List.concat
      (List.map2
         (fun (qn, q) (r : Mv_opt.Optimizer.result) ->
           let _, reports =
             Mv_opt.Plan_exec.execute_report ~adaptive:true ~stats db q
               r.Mv_opt.Optimizer.plan
           in
           List.map
             (fun (nr : Mv_opt.Plan_exec.node_report) ->
               {
                 xn_query = qn;
                 xn_label = nr.Mv_opt.Plan_exec.nr_label;
                 xn_strategy = nr.Mv_opt.Plan_exec.nr_strategy;
                 xn_est = nr.Mv_opt.Plan_exec.nr_est;
                 xn_actual = nr.Mv_opt.Plan_exec.nr_actual;
               })
             reports)
         queries rw)
  in
  {
    x_scale = scale;
    x_rows = base_rows;
    x_views = List.length views;
    x_queries = List.length queries;
    x_reps = reps;
    x_cells = cells;
    x_rewrite_speedup =
      ratio (wall ~rewrite:false ~adaptive:true)
        (wall ~rewrite:true ~adaptive:true);
    x_adaptive_speedup =
      ratio (wall ~rewrite:true ~adaptive:false)
        (wall ~rewrite:true ~adaptive:true);
    x_plans_with_views = plans_with_views;
    x_prunes = prunes;
    x_stats_missing = gval "cost.stats.missing" - missing0;
    x_equivalent = !equivalent;
    x_strategies =
      List.map (fun (k, v0) -> (k, gval ("exec.join.strategy." ^ k) - v0)) strat0;
    x_nodes = nodes;
  }

(* ---- maintenance benchmark (bench --maintain) ------------------------ *)

type maintain_cell = {
  m_nviews : int;
  m_batch_rows : int;  (** base rows written per batch (inserts + deletes) *)
  m_batches : int;
  m_rows_written : int;  (** total base rows written over the cell *)
  m_delta_wall : float;  (** total seconds, incremental-maintenance arm *)
  m_remat_wall : float;  (** total seconds, full-rematerialization arm *)
  m_delta_p50 : float;
  m_delta_p90 : float;
  m_delta_p99 : float;  (** per-batch seconds, delta arm *)
  m_remat_p50 : float;
  m_remat_p90 : float;
  m_remat_p99 : float;  (** per-batch seconds, rematerialization arm *)
  m_speedup : float;  (** [m_remat_wall /. m_delta_wall] *)
  m_equivalent : bool;
      (** every view's delta-maintained contents ended bag-equal (floats
          within tolerance) to the rematerialized arm's *)
  m_stats_fresh : bool;
      (** every [Ivm.refresh_stats] entry equals [Database.table_stats] of
          the maintained contents *)
}

type maintain_measurement = {
  mm_scale : int;
  mm_base_rows : int;
  mm_pool : int;  (** generator view pool size *)
  mm_batches : int;
  mm_cells : maintain_cell list;
  mm_equivalent : bool;  (** conjunction over the cells *)
  mm_stats_fresh : bool;
  mm_timeline : Mv_obs.Json.t;
      (** {!Mv_obs.Timeline} export: per-window maintain.delta/remat
          histogram stats sampled by a dedicated domain across the grid *)
}

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

(* One (nviews, batch size) cell: materialize the first [nviews] pool
   views over two copies of the generated database, then push the same
   write batches through incremental maintenance on one copy and through
   full rematerialization of the affected views on the other, timing each
   batch in both arms. Batches duplicate randomly picked existing rows
   (foreign keys keep holding, join deltas fire) and delete randomly
   picked distinct row instances of one randomly chosen source table. *)
let maintain_cell ?obs ~seed ~batches ~db0 ~stats0 ~pool ~nviews ~batch_rows ()
    : maintain_cell =
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
      let tbl = Mv_engine.Database.table_exn dba tn in
      let rows = tbl.Mv_engine.Table.rows in
      let n = List.length rows in
      if n > 0 then begin
        let n_ins = max 1 (batch_rows / 2) in
        let n_del = min (max 0 (batch_rows - n_ins)) (n / 2) in
        let ins =
          List.init n_ins (fun _ -> List.nth rows (Mv_util.Prng.int rng n))
        in
        let del = take n_del (Mv_util.Prng.shuffle rng rows) in
        let batch = [ (tn, { Mv_engine.Ivm.ins; del }) ] in
        rows_written := !rows_written + n_ins + n_del;
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
              (n_ins + n_del)
        | None -> ());
        timed delta_h "maintain.delta" (fun () ->
            Mv_engine.Ivm.apply ivm batch);
        timed remat_h "maintain.remat" (fun () ->
            List.iter (fun r -> Mv_engine.Database.insert dbb tn r) ins;
            List.iter (fun r -> Mv_engine.Database.delete dbb tn r) del;
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
  (* every view some batch changed gets a refreshed entry equal to a
     rebuild from its maintained contents; untouched views need none *)
  let dirty = Mv_engine.Ivm.dirty_views ivm in
  let stats' = Mv_engine.Ivm.refresh_stats ivm stats0 in
  let stats_fresh =
    List.for_all
      (fun name ->
        List.assoc_opt name stats'
        = Some (Mv_engine.Database.table_stats dba name))
      dirty
  in
  let q h p = Mv_obs.Instrument.quantile h p in
  let delta_wall = Mv_obs.Instrument.sum delta_h in
  let remat_wall = Mv_obs.Instrument.sum remat_h in
  {
    m_nviews = nviews;
    m_batch_rows = batch_rows;
    m_batches = Mv_obs.Instrument.count delta_h;
    m_rows_written = !rows_written;
    m_delta_wall = delta_wall;
    m_remat_wall = remat_wall;
    m_delta_p50 = q delta_h 0.5;
    m_delta_p90 = q delta_h 0.9;
    m_delta_p99 = q delta_h 0.99;
    m_remat_p50 = q remat_h 0.5;
    m_remat_p90 = q remat_h 0.9;
    m_remat_p99 = q remat_h 0.99;
    m_speedup = (if delta_wall > 0.0 then remat_wall /. delta_wall else 1.0);
    m_equivalent = equivalent;
    m_stats_fresh = stats_fresh;
  }

let maintain ?(seed = 42) ?(batches = 12) ?(scale = 1) ~nviews_list
    ~batch_sizes () : maintain_measurement =
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
  let tl = Mv_obs.Timeline.create ~capacity:240 obs in
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
  {
    mm_scale = scale;
    mm_base_rows = base_rows;
    mm_pool = List.length pool;
    mm_batches = batches;
    mm_cells = cells;
    mm_equivalent = List.for_all (fun c -> c.m_equivalent) cells;
    mm_stats_fresh = List.for_all (fun c -> c.m_stats_fresh) cells;
    mm_timeline = Mv_obs.Timeline.to_json tl;
  }

(* The full grid for the figures. A discarded warmup run first: the very
   first measurement otherwise pays one-time allocation/GC costs. *)
let sweep ?(domains = 1) (w : workload) ~nviews_list ~configs :
    measurement list =
  (match configs with
  | c :: _ -> ignore (run w ~nviews:0 ~config:c)
  | [] -> ());
  List.concat_map
    (fun nviews ->
      List.map (fun config -> run w ~domains ~nviews ~config) configs)
    nviews_list

(* Domain-scaling sweep: the same (nviews, Alt&Filter) cell measured at
   each domain count, after one discarded warmup. The per-measurement
   counters must not vary across rows — only the timings may. *)
let scaling (w : workload) ~nviews ~domains_list : measurement list =
  let config = { alt = true; filter = true } in
  ignore (run w ~nviews ~config);
  List.map (fun domains -> run w ~domains ~nviews ~config) domains_list

(* ---- the view-advisor benchmark (bench --advise) ---- *)

type advise_measurement = {
  a_candidates : int;
  a_mined : int;
  a_queries : int;
  a_budget : float;
  a_used : float;
  a_picks : int;
  a_considered : int;
  a_rejected : int;
  a_cost_none : float;
  a_cost_advised : float;
  a_cost_random : float list;
  a_model_before : float;
  a_model_after : float;
  a_plans_using_views : int;
  a_p50 : float;
  a_p90 : float;
  a_p99 : float;
  a_wall : float;
  a_beats_random : bool;
  a_within_budget : bool;
}

let advise ?(seed = 0) ?(trials = 5) ?(write_fraction = 0.1)
    ?(budget_frac = 0.05) ~candidates ~nqueries () : advise_measurement =
  let span = Mv_obs.Instrument.enter () in
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
        let s = Mv_obs.Instrument.enter () in
        let r = Mv_opt.Optimizer.optimize advised_registry w.stats q in
        let wall, _ = Mv_obs.Instrument.elapsed s in
        Mv_obs.Instrument.observe h wall;
        if r.Mv_opt.Optimizer.used_views then n + 1 else n)
      0 w.queries
  in
  let wall, _ = Mv_obs.Instrument.elapsed span in
  let tol = 1e-9 *. (1.0 +. cost_none) in
  {
    a_candidates = candidates;
    a_mined = List.length mined;
    a_queries = List.length w.queries;
    a_budget = budget;
    a_used = advice.Mv_opt.Advisor.used_budget;
    a_picks = List.length advice.Mv_opt.Advisor.picks;
    a_considered = advice.Mv_opt.Advisor.considered;
    a_rejected = advice.Mv_opt.Advisor.rejected;
    a_cost_none = cost_none;
    a_cost_advised = cost_advised;
    a_cost_random = cost_random;
    a_model_before = advice.Mv_opt.Advisor.cost_before;
    a_model_after = advice.Mv_opt.Advisor.cost_after;
    a_plans_using_views = plans_using_views;
    a_p50 = Mv_obs.Instrument.quantile h 0.5;
    a_p90 = Mv_obs.Instrument.quantile h 0.9;
    a_p99 = Mv_obs.Instrument.quantile h 0.99;
    a_wall = wall;
    a_beats_random =
      List.for_all (fun c -> cost_advised <= c +. tol) cost_random;
    a_within_budget = advice.Mv_opt.Advisor.used_budget <= budget +. tol;
  }
