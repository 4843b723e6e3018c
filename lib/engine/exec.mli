(** Direct execution of SPJG blocks with SQL bag semantics. This is the
    one join pipeline: direct execution, {!Mv_opt.Plan_exec},
    materialization and both {!Ivm} paths (attach and delta terms) run
    through it. It also owns the engine's one GROUP BY state ({!group}),
    which {!execute}, {!Bag.group} and {!Ivm}'s aggregate views share.

    A block is compiled before it runs: one slot per column it references,
    in an order fixed by the FROM list and the table definitions (not by
    the join order), with conjuncts, outputs, grouping keys and SUM
    arguments compiled to closures over slots. Tuples are value arrays in
    that layout; the layout itself is private to this module.

    Tables join in estimated-cardinality order when [~stats] is given
    (estimated with {!Mv_relalg.Classify.selectivity}, the optimizer's
    selectivity model) and in connectivity order otherwise. A table
    joined on keys is probed through a hash table over the rows it reads,
    keyed on the stored rows' column positions; keys compare as exact
    tuples and NULL keys never join. A hash table over a table's whole
    row list is built once per list and kept beside the built indexes
    ({!Database.build_table}), so later joins reuse it until the table is
    written; one over a slice is built per join. A table joined on no key
    (the first table scanned, or a cross product) reads its rows narrowed
    through a declared index that matches its local predicates. Each
    conjunct applies as soon as its columns are bound; then each tuple is
    projected, or folded into its group, which keeps counts and sums and
    no tuple. Hash joins are counted as [exec.join.strategy.hash] (a
    reused hash table still counts, and also as [exec.build.reused]),
    rows per operator as [exec.rows.scan|join|filter|group|output]
    ([scan]: the stored rows read by a hash build or a scan), and
    per-join estimation error (the q-error [max(est/actual, actual/est)],
    with [~stats] and without [~rows] only) is observed as
    [exec.estimation.qerror], all on [Mv_obs.Registry.global]. *)

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

val tuples :
  ?stats:Mv_catalog.Stats.t ->
  ?rows:(string -> Value.t array list) ->
  Database.t ->
  block ->
  tuple list
(** The fully-joined, fully-filtered bag of tuples of the SPJ part. FROM
    table [name] reads [rows name], by default its current list; a
    declared index or a cached hash table serves a table only when those
    rows are physically its current list ([==]), so a slice of the table
    (an IVM delta term's delta or pre-batch rows) is scanned and hashed
    on its own. [stats] orders the joins; their estimation error is
    recorded only without [rows], when the tables read are the ones the
    statistics describe. *)

(** {2 Grouping}

    The one GROUP BY state. Every aggregate is the count or SUMs: each
    SUM argument (of SUM, SUM0 and AVG, and both sides of SUM/SUM) keeps
    its raw sum and its number of non-null inputs, so tuples fold in one
    at a time with a sign and a group keeps none of them. SUM is NULL
    without a non-null input (SUM0 is then 0), AVG is the sum over the
    non-null count, and a grouping column reads the group's key. *)

type grouping
(** A grouped block's grouping expressions, SUM arguments and output
    layout. *)

type group = {
  key : Value.t array;  (** the grouping expressions' values *)
  mutable count : int;
  sums : Value.t array;  (** one per SUM argument *)
  nonnull : int array;  (** one per SUM argument *)
  mutable row : Value.t array;
      (** a maintained view's row for the group, {!render}ed after the
          group changes; empty until set *)
}

type output =
  | Project of (tuple -> Value.t) array
      (** an SPJ block's: each output column of a tuple *)
  | Group of grouping  (** a grouped block's *)

val output : block -> output
(** The outputs {!compile} built for the block. *)

val groups : grouping -> tuple list -> group Value.Key.t
(** The tuples' groups, by {!Value.Key}; a grouping without expressions
    has its one group even over no tuples. *)

val fold : grouping -> group Value.Key.t -> tuple -> int -> unit
(** [fold gr groups t sign] adds [t] to its group (added empty when
    missing) [sign] times, [sign] being +1 or -1. *)

val merge : into:group -> group -> unit
(** Add the second group's count, sums and non-null counts to [into]'s. *)

val cancelled : group -> bool
(** The count, every non-null count and every sum are zero. *)

val render : grouping -> group -> Value.t array
(** The group's output row. *)

val execute : ?stats:Mv_catalog.Stats.t -> Database.t -> Spjg.t -> Relation.t
(** Compile the block, then project its {!tuples}, or fold them into
    {!groups} and {!render} each. Zero tuples with no grouping
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
      of [binds].
      @raise Invalid_argument when a scalar output is not one of [by]. *)

  val binds : t -> Col.t -> bool
  val cardinality : t -> int

  val project : Expr.t list -> t -> Value.t array list
  (** One row per tuple, one value per expression.
      @raise Eval.Eval_error on a row, if an expression reads an unbound
      column. *)
end

val materialize : Database.t -> Mv_core.View.t -> Table.t
(** Compute the view's contents, register them as a table in the database,
    and record the row count on the view descriptor — which is also marked
    fresh (DESIGN.md §12). *)

val materialize_stats :
  Database.t ->
  Mv_core.View.t ->
  Mv_catalog.Stats.t ->
  Table.t * Mv_catalog.Stats.t
(** {!materialize}, additionally returning [stats] with a statistics
    entry built from the view's actual contents (replacing any earlier
    entry of the same name), so
    {!Mv_opt.Cost.estimate_view_rows} and substitute costing use measured
    numbers for unmaintained views. *)

val execute_substitute :
  ?stats:Mv_catalog.Stats.t -> Database.t -> Mv_core.Substitute.t -> Relation.t
(** The substitute's view must have been materialized first. *)
