(** The measurement harness behind section 5's experiments: optimize a
    fixed query batch against the first N of a fixed view population under
    the four configurations, collecting the paper's counters. *)

module Spjg = Mv_relalg.Spjg

type config = { alt : bool; filter : bool }

val config_name : config -> string

val all_configs : config list

type level_flow = { level : string; entered : int; passed : int }

(** Per-phase optimizer latency percentiles over one measurement's query
    batch, from the [optimizer.phase.*] histograms (interpolated
    quantiles of per-call wall seconds). *)
type phase_stats = {
  phase : string;  (** "analyze" | "match" | "cost" | "total" *)
  calls : int;
  p50 : float;
  p90 : float;
  p99 : float;
}

type measurement = {
  nviews : int;
  config : config;
  queries : int;
  domains : int;
      (** OCaml domains the query batch was sharded over (1 = sequential) *)
  wall_time : float;
      (** elapsed seconds for the whole query batch — the paper reports
          elapsed optimization time, so this is what the figures print *)
  cpu_time : float;  (** CPU seconds for the same batch *)
  rule_wall_time : float;
  rule_cpu_time : float;
  invocations : int;
  candidates : int;
  matched : int;
  substitutes : int;
  plans_using_views : int;
  cost_bound_prunes : int;
      (** substitute leaves abandoned by branch-and-bound cost-bound
          pruning ([opt.prune.cost_bound]), summed over the batch — plan
          choices are provably unaffected (strict [>] against the best
          complete plan) *)
  level_flow : level_flow list;
      (** per-filter-tree-level candidates in/out, summed over the batch *)
  phases : phase_stats list;
      (** one row per phase, always all four, zeros when a phase never
          ran — the JSON shape stays stable across measurement cells *)
}

val level_flow_of : Mv_core.Registry.t -> level_flow list

val phases_of : Mv_core.Registry.t -> phase_stats list

type workload = {
  schema : Mv_catalog.Schema.t;
  stats : Mv_catalog.Stats.t;
  views : Mv_core.View.t list;
  queries : Spjg.t list;
}

val make_workload :
  ?view_seed:int ->
  ?query_seed:int ->
  ?nviews:int ->
  ?nqueries:int ->
  unit ->
  workload

val take : int -> 'a list -> 'a list

val run : ?domains:int -> workload -> nviews:int -> config:config -> measurement
(** One measurement. [domains > 1] shards the query batch over that many
    OCaml domains against one shared registry ({!Pool.map_chunked});
    counter totals and candidate sets are identical to the sequential run,
    only the timings differ. Freezes the intern domains after registry
    construction. *)

val sweep :
  ?domains:int ->
  workload ->
  nviews_list:int list ->
  configs:config list ->
  measurement list
(** The full grid, with one discarded warmup run first. *)

val scaling :
  workload -> nviews:int -> domains_list:int list -> measurement list
(** The same (nviews, Alt&Filter) cell at each domain count, one warmup
    first — the rows' counters must agree, only timings may differ. *)

val whynot : workload -> nviews:int -> (string * int) list
(** Aggregate rejection provenance over the workload: every (query, view)
    pair attributed via {!Mv_core.Registry.explain} to ["matched"],
    ["filter:<stage>"] or ["reject:<label>"], counted, sorted by
    descending count (ties by name). *)

(** One serving-benchmark run: repeated-query traffic against a dynamic
    registry through the epoch-validated match/plan cache
    ({!Mv_opt.Match_cache}). Counter fields are totals over the whole run;
    the boolean fields are the correctness verdicts the acceptance gate
    reads. *)
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
  plan_invalidations : int;
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

(** One (rewrite x adaptive) timing cell of the execution benchmark:
    elapsed seconds for [x_reps] passes over the whole query set. *)
type exec_cell = { xc_rewrite : bool; xc_adaptive : bool; xc_wall : float }

(** One plan node's estimated-vs-actual row count from the
    rewrite+adaptive arm ({!Mv_opt.Plan_exec.node_report} tagged with its
    query). *)
type exec_node = {
  xn_query : string;
  xn_label : string;
  xn_strategy : string;
  xn_est : float;
  xn_actual : int;
}

(** One scale point of the end-to-end execution benchmark ([bench
    --exec]): TPC-H-style data, three hand-written views, six queries
    (four answerable from the views, two not), timed in the four
    (rewrite x adaptive) cells. *)
type exec_measurement = {
  x_scale : int;
  x_rows : int;  (** total base-table rows generated *)
  x_views : int;
  x_queries : int;
  x_reps : int;
  x_cells : exec_cell list;
  x_rewrite_speedup : float;
      (** wall(no rewrite, adaptive) / wall(rewrite, adaptive) *)
  x_adaptive_speedup : float;
      (** wall(rewrite, always-hash) / wall(rewrite, adaptive) *)
  x_plans_with_views : int;  (** of [x_queries], with substitutes on *)
  x_prunes : int;  (** [opt.prune.cost_bound] over both optimize passes *)
  x_stats_missing : int;  (** [cost.stats.missing] delta over the run *)
  x_equivalent : bool;
      (** every cell's every result was bag-equal to direct legacy
          execution of the original query *)
  x_strategies : (string * int) list;
      (** [exec.join.strategy.{hash,nlj,inlj}] deltas over the run *)
  x_nodes : exec_node list;
}

val exec_bench : ?seed:int -> ?reps:int -> scale:int -> unit -> exec_measurement
(** One scale point: generate data, materialize the views, compute
    statistics (histograms included) from the actual contents, optimize
    with and without substitutes, then time plan execution per cell
    (plans are built outside the timing loop — the cells measure
    execution only, each preceded by one discarded correctness pass). *)

(** One (view count x batch size) cell of the maintenance benchmark: the
    same random write batches pushed through incremental maintenance
    ({!Mv_engine.Ivm}) on one database copy and through full
    rematerialization of the affected views on another, per-batch wall
    seconds collected per arm. *)
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
      (** every view's delta-maintained contents ended bag-equal (float
          columns within a relative tolerance — incremental SUMs reorder
          float additions) to the rematerialized arm's *)
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
      (** {!Mv_obs.Timeline} export over the grid: every cell reports its
          per-batch [maintain.delta] / [maintain.remat] seconds into a
          shared scoped obs registry, windowed by a dedicated sampler
          domain *)
}

val bag_close :
  Mv_base.Value.t array list -> Mv_base.Value.t array list -> bool
(** Near-equality of view contents as bags: float columns compare within a
    relative tolerance (incremental SUM maintenance reorders float
    additions and may drift by rounding from a from-scratch fold —
    DESIGN.md §12); everything else is exact. *)

val maintain :
  ?seed:int ->
  ?batches:int ->
  ?scale:int ->
  nviews_list:int list ->
  batch_sizes:int list ->
  unit ->
  maintain_measurement
(** The maintenance benchmark ([bench --maintain]): generate TPC-H-style
    data, draw a generator view pool over its actual statistics, then for
    every (view count, batch size) cell feed identical random insert/delete
    batches to a delta-maintained copy and a rematerialize-on-write copy,
    timing each batch in both arms and checking the final contents agree. *)

val serving :
  ?domains:int ->
  ?passes:int ->
  ?capacity:int ->
  workload ->
  nviews:int ->
  serving_measurement
(** Cold pass, [passes] warm passes, then a drop and a re-add of the first
    view with cached-vs-uncached agreement checked after each mutation.
    [domains > 1] shards every pass over that many OCaml domains against
    the one shared cache (mutex-sharded). *)

(** One candidate-scale point of the advisor benchmark ([bench --advise]):
    mine candidates from a generated workload, select under a storage
    budget, then compare the advised set against random-equal-budget sets
    on real optimizer cost. Entirely model-driven and deterministic except
    the latency fields — the verdict booleans never depend on timing. *)
type advise_measurement = {
  a_candidates : int;  (** candidate pool size offered to the advisor *)
  a_mined : int;  (** distinct candidates mined before truncation *)
  a_queries : int;
  a_budget : float;  (** storage budget (estimated rows) *)
  a_used : float;  (** budget consumed by the picks *)
  a_picks : int;
  a_considered : int;  (** candidates accepted into the pricing pool *)
  a_rejected : int;  (** candidates the registry would not index *)
  a_cost_none : float;
      (** real total workload cost (optimizer cost + maintenance term)
          with no views registered *)
  a_cost_advised : float;  (** the same under the advised set *)
  a_cost_random : float list;  (** one per random-equal-budget trial *)
  a_model_before : float;  (** the advisor's own modeled before-cost *)
  a_model_after : float;  (** ... and modeled after-cost *)
  a_plans_using_views : int;  (** queries rewritten under the advised set *)
  a_p50 : float;
  a_p90 : float;
  a_p99 : float;  (** per-query optimize wall seconds, advised registry *)
  a_wall : float;  (** end-to-end mine+advise+evaluate seconds *)
  a_beats_random : bool;
      (** advised cost <= every random trial's (the acceptance gate) *)
  a_within_budget : bool;
}

val advise :
  ?seed:int ->
  ?trials:int ->
  ?write_fraction:float ->
  ?budget_frac:float ->
  candidates:int ->
  nqueries:int ->
  unit ->
  advise_measurement
(** One scale point: generate [nqueries] queries (a different seed per
    candidate scale), mine, keep the first [candidates] candidates, advise
    under a budget of [budget_frac] of the pool's total estimated size,
    and evaluate advised vs [trials] random-equal-budget sets with the
    real optimizer. *)
