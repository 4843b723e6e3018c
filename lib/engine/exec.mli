(** Direct execution of SPJG blocks with SQL bag semantics. This is the
    one join pipeline: direct execution, {!Mv_opt.Plan_exec},
    materialization and both {!Ivm} paths (attach and delta terms) run
    through it.

    A block is compiled before it runs: one slot per column it references,
    in an order fixed by the FROM list and the table definitions (not by
    the join order), with conjuncts, outputs, grouping keys and aggregates
    compiled to closures over slots. Tuples are value arrays in that
    layout; the layout itself is private to this module.

    Tables join in estimated-cardinality order when [~stats] is given and
    in connectivity order otherwise. Each join probes a declared index
    whose leading column is a join key when the probe side has at most 64
    tuples and the table more rows than that, and is a hash join keyed on
    the stored rows' column positions otherwise; both compare full key
    tuples exactly and never join NULL keys. Each conjunct applies as soon
    as its columns are bound, then rows are grouped and projected.
    Strategy picks are counted as [exec.join.strategy.hash|inlj], rows per
    operator as [exec.rows.scan|join|filter|group|output], and per-join
    estimation error (the q-error [max(est/actual, actual/est)], with
    [~stats] only) is observed as [exec.estimation.qerror], all on
    [Mv_obs.Registry.global]. *)

open Mv_base
module Spjg = Mv_relalg.Spjg

val observe_qerror : est:float -> actual:int -> unit
(** Record [max(est/actual, actual/est)] in the [exec.estimation.qerror]
    histogram (skipped unless both sides are positive). *)

type tuple
(** One joined, filtered tuple of a compiled block. *)

type block
(** An SPJG block compiled against table definitions. It depends only on
    the block and the column lists of its tables, so it runs against any
    database whose tables of those names have the same definitions. *)

val compile : Database.t -> Spjg.t -> block
(** @raise Invalid_argument when a FROM table is not in the database. *)

val expr : block -> Expr.t -> tuple -> Value.t
(** An expression compiled against the block's layout.
    @raise Eval.Eval_error when applied, if it reads a column the block
    does not reference. *)

val tuples : ?stats:Mv_catalog.Stats.t -> Database.t -> block -> tuple list
(** The fully-joined, fully-filtered bag of tuples of the SPJ part. *)

val execute : ?stats:Mv_catalog.Stats.t -> Database.t -> Spjg.t -> Relation.t
(** Compile the block, then group (if it aggregates) and project its
    {!tuples}. Aggregates skip NULLs and an empty sum is NULL (except
    [Sum0], which coalesces to 0). Zero tuples with no grouping
    expressions yield one row; with grouping expressions, none. Groups
    come out in first-seen order. *)

(** The results of plan nodes: bags of rows whose columns are bound to
    {!Col.t}s. Joins and grouping compile their keys, predicates and
    aggregates against the bound columns and run the operators
    {!execute} runs. *)
module Bag : sig
  type t

  val of_relation : binds:Col.t list -> Relation.t -> t
  (** Column [i] of every row bound to the [i]-th of [binds] (a column
      bound twice reads the later position). The rows are shared, not
      copied. *)

  val join : keys:(Col.t * Col.t) list -> post:Pred.t list -> t -> t -> t
  (** The hash join of {!execute} with the left bag probing: [keys] are
      (left column, right column) equijoin pairs, a NULL key never joins,
      no keys is a cross product. [post] filters the joined rows. A column
      both sides bind reads the left side's value.
      @raise Eval.Eval_error when a key column is not bound. *)

  val group : by:Expr.t list -> out:Spjg.out_item list -> binds:Col.t list -> t -> t
  (** The grouping of {!execute}; output item [i] is bound to the [i]-th
      of [binds]. *)

  val binds : t -> Col.t -> bool
  val cardinality : t -> int

  val project : Expr.t list -> t -> Value.t array list
  (** One row per tuple, one value per expression.
      @raise Eval.Eval_error on a row, if an expression reads an unbound
      column. *)
end

val mark_fresh : Database.t -> Mv_core.View.t -> unit
(** {!Mv_core.View.mark_fresh} at the current write epochs of the view's
    base tables: its contents now correspond to them. *)

val materialize : Database.t -> Mv_core.View.t -> Table.t
(** Compute the view's contents, register them as a table in the database,
    and record the row count on the view descriptor — which is also marked
    fresh at the base tables' current write epochs (DESIGN.md §12). *)

val materialize_stats :
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
