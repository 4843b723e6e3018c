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

val counters_agree : measurement list -> bool
(** Candidates, matched, substitutes, plans using views and the level flow
    are equal across the rows — what a domain-scaling sweep must hold. *)

val scaling : workload -> nviews:int -> domains_list:int list -> Measure.t
(** The same (nviews, Alt&Filter) cell at each domain count, one warmup
    first: one [rows] sub-measure per domain count (timings, speedup over
    the 1-domain row, the paper's counters) and the [counters_agree]
    verdict. *)

val whynot : workload -> nviews:int -> (string * int) list
(** Aggregate rejection provenance over the workload: every (query, view)
    pair attributed via {!Mv_core.Registry.explain} to ["matched"],
    ["filter:<stage>"] or ["reject:<label>"], counted, sorted by
    descending count (ties by name). *)

val exec_bench : ?seed:int -> ?reps:int -> scale:int -> unit -> Measure.t
(** One scale point of [bench --exec]: TPC-H-style data, three
    hand-written views, six queries (four answerable from the views).
    Statistics come from the materialized contents; plan execution is
    timed in two [cells], without and with rewrites, plans built outside
    the timing loop. [nodes] carries estimated vs actual rows per plan
    node of the rewrite arm; the [equivalent] verdict holds when every
    cell's every result was bag-equal to direct execution of the
    query. *)

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
  Measure.t
(** The maintenance benchmark ([bench --maintain]): generate TPC-H-style
    data, draw a generator view pool over its actual statistics, then for
    every (view count, batch size) cell feed identical random insert/delete
    batches to a delta-maintained copy and a rematerialize-on-write copy,
    timing each batch in both arms. Each of the [cells] carries the
    verdicts [equivalent] (contents bag-equal, floats within tolerance)
    and [stats_fresh] (every [Ivm.refresh_stats] entry equals
    [Database.table_stats] of the maintained contents); the section's
    verdicts are their conjunctions, and [timeline] windows the cells'
    per-batch histograms across the grid. *)

val advise :
  ?seed:int ->
  ?trials:int ->
  ?write_fraction:float ->
  ?budget_frac:float ->
  candidates:int ->
  nqueries:int ->
  unit ->
  Measure.t
(** One candidate-scale point of [bench --advise]: generate [nqueries]
    queries (a different seed per candidate scale), mine, keep the first
    [candidates] candidates, advise under a budget of [budget_frac] of
    the pool's total estimated size, and evaluate advised vs [trials]
    random-equal-budget sets with the real optimizer. The verdicts
    [beats_random] and [within_budget] never depend on timing. *)
