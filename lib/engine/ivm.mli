(** Incremental view maintenance (IVM): counting-based bag deltas
    propagated through SPJG view definitions on base-table insert/delete
    batches (DESIGN.md §12).

    The delta of a join is the telescoping sum over the view's tables
    [T1 .. Tn]:

    {v ΔQ = Σᵢ  T1ⁿᵉʷ ⋈ … ⋈ Tᵢ₋₁ⁿᵉʷ ⋈ ΔTᵢ ⋈ Tᵢ₊₁ᵒˡᵈ ⋈ … ⋈ Tnᵒˡᵈ v}

    where [ΔTᵢ = inserts − deletes] as a signed bag. Each term is
    evaluated by the ordinary executor, running the view's block as
    {!Exec.compile}d once at {!attach}, with each table reading its slice
    ({!Exec.tuples}'s [~rows]): the delta part for table [i] (insert and
    delete parts run separately; the sign multiplies through), new rows
    before it, old rows after it. A slice that is physically the live
    table's row list keeps the declared and built indexes and the cached
    hash tables, so the executor probes it instead of scanning or
    rehashing it; the delta slice and a written table's old rows never get
    them. For SPJ views the signed output tuples of the block's
    projection ({!Exec.output}) apply directly to the materialized table
    as bag inserts/deletes (a delete is matched in one walk that compares
    a single column before the full row). For aggregation views they fold
    into the executor's group state ({!Exec.group}), which holds the
    view's contents: built at {!attach} and keyed by the block's grouping
    expressions (the indexability rules of section 2 guarantee every
    grouping expression and a count column are stored, which is exactly
    what makes this maintainable). A batch's signed tuples fold into an
    accumulator of the same kind, which merges into the groups: a group is
    born when its count first becomes positive and dies when it returns to
    zero, and a born or changed group re-renders its row. The non-null SUM
    input counts the group keeps make NULL semantics exact: a SUM whose
    surviving inputs are all NULL returns to NULL, indistinguishable from
    0 by the stored value alone. After a batch that bears, kills or
    changes a group, the view's stored list is rebuilt from the groups'
    rows in one pass over the group table, in its order; a batch whose
    delta reaches no group of the view leaves the list, and what was built
    over it, as it was. No stored row is keyed or hashed per write.

    Statistics follow PostgreSQL's autoanalyze rule, not every write: each
    view counts the stored rows its batches removed plus added since its
    statistics entry was last built (at {!attach}, or by
    {!refresh_stats}), and {!refresh_stats} rebuilds the entry once that
    count exceeds [50 + rows / 10], [rows] being the view's row count at
    the last build. A rebuild builds only the columns the cost model has
    read ({!Mv_catalog.Stats.col_stats}) and defers the rest to their
    first read ({!Database.rebuild_stats}). An entry's built columns
    therefore equal [table_stats] of the view as of its last rebuild, a
    deferred column equals it as of the column's first read, and
    {!Mv_core.View.row_count} stays exact on every write.

    Progress is observable on [Mv_obs.Registry.global]: [ivm.batches],
    [ivm.views.updated], [ivm.rows.plus], [ivm.rows.minus],
    [ivm.groups.born], [ivm.groups.died], and [ivm.stats.columns_built],
    the columns rebuilds built (a column built on a read counts in
    [stats.columns.built_on_read]).

    Floating-point caveat: SUM over [Float] expressions is maintained by
    incremental addition/subtraction, which can drift from a from-scratch
    rematerialization by rounding (summation order differs). Integer sums
    are exact. *)

type delta = Database.delta = {
  ins : Mv_base.Value.t array list;  (** rows inserted *)
  del : Mv_base.Value.t array list;  (** row instances deleted *)
}

type batch = Database.batch
(** One write batch: per-base-table inserts and deletes, applied
    atomically with respect to maintenance (every attached view sees the
    whole batch). *)

val updates : (Mv_base.Value.t array * Mv_base.Value.t array) list -> delta
(** UPDATE as delete+insert sugar (ROADMAP item 2 follow-up): each
    [(before, after)] pair contributes [before] to {!field-del} and
    [after] to {!field-ins}, so counting-based maintenance treats an
    update exactly as the bag difference it is. Identical pairs are kept —
    a no-op update round-trips through maintenance unchanged. *)

exception Unsupported of string
(** The view definition is not indexable ({!Mv_relalg.Spjg.check_indexable}:
    an aggregation view without a [count_big( * )] column or a grouping
    expression among its outputs, or with an [AVG], [SUM]/[SUM] or [SUM0]
    output), so its stored rows cannot be maintained from its groups.
    {!Mv_core.View.create} never produces one. *)

exception Inconsistent of string
(** An aggregation view's stored rows are not one per group of its
    definition at {!attach}, or maintenance derived an impossible state (a
    negative group count or SUM input count, a delete of a row the view
    does not contain): the stored rows or the batch contradict the
    database contents. *)

type t
(** A maintenance engine bound to one database: the set of attached views
    plus the groups of each aggregation view. *)

val create : ?health:Mv_core.Health.t -> Database.t -> t
(** [health] is the owning registry's per-view ledger: when given, every
    per-view delta application in {!apply} charges its wall time to that
    view's account ([record_maintenance], DESIGN.md §14). *)

val attach : t -> Mv_core.View.t -> unit
(** Register a materialized view for maintenance. The view's table must
    already exist in the database ({!Exec.materialize}); aggregation
    views pay one evaluation of their SPJ part here to build their groups,
    and link each stored row, through the stored column of each grouping
    expression, to its group: the one time a stored row's group key is
    built. Attaching counts as a statistics build: the view's row count
    is the base of the rebuild threshold. An SPJ view computes its
    {!Database.table_stats}, every column built, once here: its distinct
    counts pick, for the view's life, the column its deletes are matched
    on first. Clears the descriptor's staleness mark.
    @raise Invalid_argument when the view is not materialized or already
    attached.
    @raise Unsupported on a definition IVM cannot maintain.
    @raise Inconsistent when an aggregation view's stored rows and its
    groups are not one-to-one: a row whose key no group has, two rows of
    one group, or a group without a row. Nothing is attached, and the
    stored rows are left as they are. *)

val detach : t -> string -> unit
(** Forget a view by name (no-op when unknown). Its table is left as-is. *)

val attached : t -> Mv_core.View.t list
(** Attachment order. *)

val apply : t -> batch -> unit
(** Write the batch to the base tables with {!Database.write}, then
    propagate deltas into every attached view whose sources intersect the
    written tables: rewrite their materialized rows in place, add the
    stored rows removed plus added to the view's change count (an
    aggregate group whose row changes counts 2), update
    {!Mv_core.View.row_count}, drop the indexes and hash tables built over
    the view tables ({!Database.touch}) and clear their staleness marks
    ({!Mv_core.View.mark_fresh}). Views sourcing none of the written
    tables are untouched. The delta consumers (the grouping and the
    projected outputs) are the ones {!Exec.compile} built at {!attach}.
    @raise Database.Invalid_batch when the batch writes an attached view's
    own table, or {!Database.write} rejects it; nothing is written: base
    rows, view rows, change counts and freshness are as before the call.
    @raise Inconsistent when propagation contradicts the attached state. *)

val refresh_stats : t -> Mv_catalog.Stats.t -> Mv_catalog.Stats.t
(** Return [stats] with the entry of every due view ({!dirty_views})
    rebuilt from its current contents by {!Database.rebuild_stats}, which
    resets its change count: the columns its entry in [stats] had read
    are built now, the rest are deferred to their first read. Every other
    entry comes back physically unchanged, and a view with no entry in
    [stats] gets one, every column deferred, only when it is due; with no
    view due, [stats] itself is returned. *)

val dirty_views : t -> string list
(** The views the next {!refresh_stats} would rebuild, in attachment
    order: those whose stored rows removed plus added since their last
    statistics build exceed [50 + rows / 10] (PostgreSQL's autoanalyze
    defaults), [rows] being their row count at that build. *)
