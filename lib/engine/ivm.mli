(** Incremental view maintenance (IVM): counting-based bag deltas
    propagated through SPJG view definitions on base-table insert/delete
    batches (DESIGN.md §12).

    The delta of a join is the telescoping sum over the view's tables
    [T1 .. Tn]:

    {v ΔQ = Σᵢ  T1ⁿᵉʷ ⋈ … ⋈ Tᵢ₋₁ⁿᵉʷ ⋈ ΔTᵢ ⋈ Tᵢ₊₁ᵒˡᵈ ⋈ … ⋈ Tnᵒˡᵈ v}

    where [ΔTᵢ = inserts − deletes] as a signed bag. Each term is
    evaluated by the ordinary executor, running the view's block as
    {!Exec.compile}d once at {!attach}, against a scratch database with the
    delta part substituted for table [i] (insert and delete parts run
    separately; the sign multiplies through). A slice that is physically
    the live table's row list keeps the live database's declared and built
    indexes, so the executor probes it instead of scanning it; the delta
    slice and a written table's old rows never get them. For SPJ views the
    signed
    output tuples apply directly to the materialized table as bag
    inserts/deletes; for aggregation views they are grouped and folded
    into the stored [count_big( * )] and [SUM] columns — a group is born
    when its count first becomes positive and dies when it returns to
    zero (the indexability rules of section 2 guarantee every grouping
    expression and a count column are stored, which is exactly what makes
    this maintainable). A per-group sidecar of non-null SUM contribution
    counts (rebuilt at {!attach}) keeps NULL semantics exact: a SUM whose
    surviving inputs are all NULL returns to NULL, indistinguishable from
    0 by the stored value alone.

    Progress is observable on [Mv_obs.Registry.global]: [ivm.batches],
    [ivm.views.updated], [ivm.rows.plus], [ivm.rows.minus],
    [ivm.groups.born], [ivm.groups.died].

    Floating-point caveat: SUM over [Float] expressions is maintained by
    incremental addition/subtraction, which can drift from a from-scratch
    rematerialization by rounding (summation order differs). Integer sums
    are exact. *)

type delta = {
  ins : Mv_base.Value.t array list;  (** rows inserted *)
  del : Mv_base.Value.t array list;  (** row instances deleted *)
}

type batch = (string * delta) list
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
(** The view definition cannot be maintained incrementally (an [AVG] or
    [SUM]/[SUM] output — never produced by {!Mv_core.View.create}, which
    enforces indexability). *)

exception Inconsistent of string
(** Maintenance derived an impossible state (negative group count, a
    delete of a row the view does not contain): the batch contradicts the
    database contents the view was attached over. *)

exception Invalid_batch of string
(** The batch cannot apply: it writes an unknown table or an attached
    view's own table, a row has the wrong arity, an inserted value does
    not fit its column (a NULL in a NOT NULL column, or a value of another
    type than the column's — an Int fits a Float column), or a delete
    names a row the table does not hold as many times as the batch
    deletes it (after the batch's own earlier inserts and deletes). The
    message names the table, and the column for a misfit value. Raised
    before anything is written. *)

type t
(** A maintenance engine bound to one database: the set of attached views
    plus their aggregate sidecars. *)

val create : ?health:Mv_core.Health.t -> Database.t -> t
(** [health] is the owning registry's per-view ledger: when given, every
    per-view delta application in {!apply} charges its wall time to that
    view's account ([record_maintenance], DESIGN.md §14). *)

val database : t -> Database.t

val attach : t -> Mv_core.View.t -> unit
(** Register a materialized view for maintenance. The view's table must
    already exist in the database ({!Exec.materialize}); aggregation
    views pay one evaluation of their SPJ part here to build the
    non-null-count sidecar. Each view column's non-null values are sorted
    once here and kept for {!refresh_stats}: one pointer per stored
    non-null value (values are shared, never copied). Records the
    current base-table write epochs on the descriptor and clears its
    staleness mark.
    @raise Invalid_argument when the view is not materialized or already
    attached.
    @raise Unsupported on a definition IVM cannot maintain. *)

val detach : t -> string -> unit
(** Forget a view by name (no-op when unknown). Its table is left as-is. *)

val attached : t -> Mv_core.View.t list
(** Attachment order. *)

val apply : t -> batch -> unit
(** Validate the whole batch, apply it to the base tables (per delta, its
    inserts and then its deletes, in batch order; one write epoch per
    table a non-empty delta writes), then propagate deltas into every
    attached view whose sources intersect the written tables: rewrite
    their materialized rows in place, update each column's sorted values
    from the exact rows removed and added, update
    {!Mv_core.View.row_count}, bump the view tables' write epochs
    (invalidating built indexes) and re-stamp freshness
    ({!Mv_core.View.mark_fresh} with the new base epochs). Views sourcing
    none of the written tables are untouched. The delta consumers (group
    keys, sums, projected outputs) are the closures compiled at
    {!attach}.
    @raise Invalid_batch when the batch cannot apply; nothing is written:
    base rows, view rows, statistics, write epochs and freshness are as
    before the call.
    @raise Inconsistent when propagation contradicts the attached state,
    including a removed row holding a value its column's sorted values
    lack. *)

val refresh_stats : t -> Mv_catalog.Stats.t -> Mv_catalog.Stats.t
(** Return [stats] with the entry of every view updated by {!apply} since
    the last call derived from its maintained sorted columns
    ({!Mv_catalog.Stats.of_sorted}, no sort), leaving every other entry
    untouched. Each derived entry equals {!Database.table_stats} of the
    view's current contents: row count, min, max, ndv, histograms and
    MCVs. Clears the dirty marks. *)

val dirty_views : t -> string list
(** Views updated by {!apply} since the last {!refresh_stats} — whose
    statistics entries are out of date. *)
