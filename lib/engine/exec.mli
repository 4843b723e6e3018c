(** Direct execution of SPJG blocks with SQL bag semantics. This is the
    one join pipeline: direct execution, {!Mv_opt.Plan_exec},
    materialization and both {!Ivm} paths (attach and delta terms) run
    through it.

    Tables join in estimated-cardinality order when [~stats] is given and
    in connectivity order otherwise. Each join probes a declared index
    whose leading column is a join key when the probe side has at most 64
    tuples and the table more rows than that, and is a hash join built on
    the table otherwise; both compare full key tuples exactly and never
    join NULL keys. Each conjunct applies as soon as its columns are
    bound, then rows are grouped and projected. Strategy picks are counted
    as [exec.join.strategy.hash|inlj] and per-join estimation error (the
    q-error [max(est/actual, actual/est)], with [~stats] only) is observed
    as [exec.estimation.qerror], both on [Mv_obs.Registry.global]. *)

open Mv_base
module Spjg = Mv_relalg.Spjg

type bindings = Value.t Col.Map.t

val observe_qerror : est:float -> actual:int -> unit
(** Record [max(est/actual, actual/est)] in the [exec.estimation.qerror]
    histogram (skipped unless both sides are positive). *)

val env_of : bindings -> Col.t -> Value.t
(** @raise Eval.Eval_error on unbound columns. *)

val hash_join :
  (Col.t * Col.t) list ->
  probe:bindings list ->
  build:bindings list ->
  bindings list
(** The join of every SPJ block: [keys] are (probe column, build column)
    equijoin pairs; a hash table over [build] is probed by each [probe]
    tuple in turn. A NULL key never joins; no keys is a cross product.
    {!Mv_opt.Plan_exec}'s join nodes call it directly. *)

val aggregate :
  Expr.t list -> Spjg.out_item list -> bindings list -> Value.t array list
(** Group the tuples by the grouping expressions and evaluate the output
    items per group, groups in first-seen order. Aggregates skip NULLs and
    an empty sum is NULL (except [Sum0], which coalesces to 0). Zero
    tuples with no grouping expressions yield one row; with grouping
    expressions, none. {!Mv_opt.Plan_exec}'s aggregate nodes call it
    directly. *)

val spj_tuples :
  ?stats:Mv_catalog.Stats.t -> Database.t -> Spjg.t -> bindings list
(** The fully-joined, fully-filtered bag of tuples of the SPJ part. *)

val execute : ?stats:Mv_catalog.Stats.t -> Database.t -> Spjg.t -> Relation.t

val materialize : Database.t -> Mv_core.View.t -> Table.t
(** Compute the view's contents, register them as a table in the database,
    and record the row count on the view descriptor — which is also marked
    fresh at the base tables' current write epochs (DESIGN.md §12). *)

val materialize_stats :
  ?buckets:int ->
  Database.t ->
  Mv_core.View.t ->
  Mv_catalog.Stats.t ->
  Table.t * Mv_catalog.Stats.t
(** {!materialize}, additionally returning [stats] extended with a
    statistics entry built from the view's actual contents (shadowing any
    earlier entry of the same name), so
    {!Mv_opt.Cost.estimate_view_rows} and substitute costing use measured
    numbers for unmaintained views. *)

val execute_substitute :
  ?stats:Mv_catalog.Stats.t -> Database.t -> Mv_core.Substitute.t -> Relation.t
(** The substitute's view must have been materialized first. *)

val execute_union :
  ?stats:Mv_catalog.Stats.t ->
  Database.t ->
  Mv_core.Union_substitute.t ->
  Relation.t
(** UNION ALL of the parts; every part's view must be materialized. *)
