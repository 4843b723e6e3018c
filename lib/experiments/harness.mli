(** The measurement harness behind section 5's experiments: optimize a
    fixed query batch against the first N of a fixed view population under
    the four configurations, collecting the paper's counters as one
    {!Measure.t} cell per grid point. The other bench sections (scaling,
    why-not, exec, maintenance, advise) are built here too, each a
    {!Measure.t}. *)

module Spjg = Mv_relalg.Spjg

type config = { alt : bool; filter : bool }

val config_name : config -> string

val all_configs : config list
(** The four configurations in the paper's column order: Alt&Filter,
    NoAlt&Filter, Alt&NoFilter, NoAlt&NoFilter. *)

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

val levels : Mv_core.Registry.t -> Measure.t list
(** The registry filter tree's per-level candidate flow, read from its
    [filter_tree.level.*], [filter_tree.strong_range] and
    [filter_tree.sum_arguments] counters: one ["level"] measure (param
    [level], metrics [in] and [out]) per level that saw any candidate, in
    the navigation order of the registry's plan, then strong-range and
    sum-arguments. *)

val run : ?domains:int -> workload -> nviews:int -> config:config -> Measure.t
(** One grid cell, a ["cell"] measure. Params: [config], [alt], [filter],
    [nviews], [queries], [domains]. Metrics: [wall_time_s] and
    [cpu_time_s] for the whole batch (the paper reports elapsed time, so
    the figures print wall time; both clocks are read once at each end of
    the batch); [rule_wall_time_s], the sum of [optimizer.phase.match],
    whose samples are one rule invocation each; [invocations],
    [candidates] and [substitutes] from the [rule.*] counters;
    [plans_using_views]; and one [phases.<phase>] block per optimizer
    phase ([analyze], [match], [cost], [total]: [calls] and interpolated
    p50/p90/p99 of per-call wall seconds from [optimizer.phase.*]; zeros
    when a phase never ran, so every cell has the same shape). The
    [levels] sub-list is {!levels} (empty without views or filter tree).

    [domains > 1] shards the query batch over that many OCaml domains
    against one shared registry ({!Pool.map_chunked}); counter totals and
    candidate sets are identical to the sequential run, only the timings
    differ. Freezes the intern domains after registry construction. *)

val sweep :
  ?domains:int ->
  workload ->
  nviews_list:int list ->
  configs:config list ->
  Measure.t list
(** The full grid of {!run} cells, with one discarded warmup run first. *)

val counters_agree : Measure.t list -> bool
(** Candidates, substitutes, plans using views and the levels are equal
    across the cells — what a domain-scaling sweep must hold. *)

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

val random_delta :
  Mv_util.Prng.t ->
  Mv_base.Value.t array list ->
  nrows:int ->
  Mv_engine.Ivm.delta
(** A random write of about [nrows] rows to a table whose current contents
    are [rows] (non-empty): re-insert [max 1 (nrows / 2)] existing rows
    drawn with replacement (foreign keys keep holding, join deltas fire),
    then delete the rest as distinct existing row instances, at most half
    the table. Draws in that order from the generator, so a seed fixes the
    write. *)

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
    and [stats_fresh] ([Ivm.refresh_stats] rebuilds the entry of every
    view past its rebuild threshold to equal [Database.table_stats] of the
    maintained contents, and passes every other entry through); the
    section's verdicts are their conjunctions, and [timeline] windows the
    cells' per-batch histograms across the grid. *)

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
