(** The view registry: all materialized views, indexed by a filter tree,
    with the counters the paper's evaluation reports. This is the entry
    point the optimizer's view-matching rule calls.

    Measurement runs through {!field-obs} (an [Mv_obs] registry scoped
    to this view registry): [rule.invocations], [rule.candidates] (views
    surviving the filter tree), [rule.substitutes] (candidates that
    produced a substitute, one each), and the filter tree's
    [filter_tree.*] per-level counters. The rule reads no
    clock: the optimizer times each invocation (filtering, per-view tests
    and substitute construction) as one [optimizer.phase.match] sample. *)

(** One effective add or drop, as the change log records it. *)
type change = {
  ch_epoch : int;  (** the epoch the change published *)
  ch_view : View.t;  (** the view added or dropped *)
  ch_stage : Filter_tree.stage;
      (** its reshaped stage ({!Filter_tree.insert}, {!Filter_tree.remove}) *)
}

(** An immutable, epoch-stamped state of the registry: the population, a
    filter tree indexing exactly that population and the log of recent
    changes, published together with one [Atomic.set]. Nothing reachable
    from a snapshot is ever written — an add or drop builds the next one,
    sharing the tree off the view's path and the log's tail — so a reader
    may hold it across an arbitrary amount of work with no lock
    (DESIGN.md §10). *)
type snapshot = {
  snap_epoch : int;
      (** the registry epoch: 0 for an empty registry, bumped once by
          every effective add or drop *)
  snap_views : View.t list;  (** insertion order *)
  snap_tree : Filter_tree.t;  (** indexes exactly [snap_views] *)
  snap_log : change list;
      (** the changes with epochs [snap_log_from + 1] to [snap_epoch],
          newest first: at least the last 1024, at most 2047 *)
  snap_log_from : int;  (** the oldest epoch the log reaches back to *)
}

(** The rule's [rule.*] instruments, resolved on first use and then bumped
    without a lookup ({!Mv_obs.Registry.resolver}). *)
type rule_handles = {
  h_invocations : unit -> Mv_obs.Instrument.counter;
  h_candidates : unit -> Mv_obs.Instrument.counter;
  h_substitutes : unit -> Mv_obs.Instrument.counter;
}

type t = {
  schema : Mv_catalog.Schema.t;
  relaxed_nulls : bool;
  backjoins : bool;
      (** enable the section 7 base-table backjoin extension; also switches
          the filter tree to {!Filter_tree.backjoin_plan} *)
  use_filter : bool;
      (** [false] = the paper's "No Filter" configuration: candidates are
          all views, tested linearly *)
  obs : Mv_obs.Registry.t;
  rule : rule_handles;  (** handles on [obs] *)
  health : Health.t;
      (** the per-view ledger: candidate/matched recorded here by the
          rule; higher layers attribute chosen/benefit (optimizer),
          maintenance ([Mv_engine.Ivm]) and cache hits (serving front
          end). Keyed by view name, so accounts survive churn. *)
  state : snapshot Atomic.t;
      (** the published state. Internal — read through {!val-snapshot};
          the serving front's plan table ([Mv_experiments.Serve]) stamps
          its entries with the snapshot's epoch and revalidates an older
          entry against the snapshot's change log (DESIGN.md §8). *)
  write : Mutex.t;
      (** serializes mutations; no read path ever takes it *)
}

exception Duplicate_view of string

val create :
  ?relaxed_nulls:bool ->
  ?backjoins:bool ->
  ?use_filter:bool ->
  Mv_catalog.Schema.t ->
  t

val epoch : t -> int
(** [(snapshot t).snap_epoch]. Monotonically increasing; changes exactly
    when the view population changes. *)

val snapshot : t -> snapshot
(** The current published snapshot: one [Atomic.get], wait-free. Every
    registry publishes from {!create} on, and every effective add or drop
    publishes the next snapshot, so any domain may read while another
    mutates.

    Pinning the result and passing it as [?snap] to the read operations
    below runs them all against one registry state, regardless of
    concurrent add/drop. *)

val view_count : t -> int

val find_view : t -> string -> View.t option

val add_view :
  t ->
  ?row_count:int ->
  ?indexes:string list list ->
  name:string ->
  Mv_relalg.Spjg.t ->
  View.t
(** Define and index a materialized view, publishing a snapshot at the
    next epoch. On an exception nothing is published.
    @raise Duplicate_view on name collision.
    @raise View.Rejected when the definition is not indexable. *)

val add_prebuilt : t -> View.t -> unit
(** Register an already-created descriptor (shared across registries by
    the experiment sweeps). *)

val remove_view : t -> string -> unit
(** Drop a view by name: publishes a snapshot whose tree is the old one
    with the view removed ({!Filter_tree.remove}: emptied lattice keys
    are unlinked, nothing is rebuilt), at the next epoch. An unknown name
    publishes nothing and keeps the epoch. *)

val candidates : ?snap:snapshot -> t -> Mv_relalg.Analysis.t -> View.t list

val search : ?snap:snapshot -> t -> Filter_tree.query_info -> View.t list
(** {!candidates} from the search keys alone, bumping no counter: what a
    rule invocation with these keys would find. *)

(** {2 Revalidation}

    A stored result computed from candidate lists holds at a later epoch
    when no change since changed any of those lists (DESIGN.md §8). *)

val changes_since : snapshot -> int -> change list option
(** The changes that led from epoch [e] to the snapshot, one per distinct
    view and reshaped stage (a view dropped and re-added at the same
    stage appears once), newest first; [None] when [e] is older than the
    snapshot's log reaches. *)

val unchanged_by : t -> change -> Filter_tree.query_info -> bool
(** The screen, {!Filter_tree.unchanged_by}: [true] when the change
    provably left {!search}'s result for these keys unchanged. Always
    [false] without the filter tree, where the candidates are the whole
    population. *)

val find_substitutes :
  ?spans:Mv_obs.Span.scope ->
  ?snap:snapshot ->
  ?record:(Filter_tree.query_info -> View.t list -> unit) ->
  t ->
  Mv_relalg.Analysis.t ->
  Substitute.t list
(** The view-matching rule body: filter, test every candidate, build one
    substitute per matching view. Bumps the [rule.*] instruments.
    [record] receives the query's search keys and the candidate list
    before any candidate is tested.

    With [spans], records a ["filter"] child span (population / candidate
    counts plus one ["stage:<name>"] instant per filter-tree stage with
    entered/pruned/out counts and the pruned view names, capped) and one
    ["match:<view>"] span per candidate carrying the matcher's phase spans
    and outcome attributes. The traced replay never touches the indexed
    search; untraced invocations are unchanged.

    Without [snap], each invocation runs against {!val-snapshot}'s current
    value; with it, against exactly the pinned state — what lets a whole
    optimization see one consistent registry under concurrent churn. *)

(** {2 Why-not} *)

type explanation =
  | Filtered of Filter_tree.stage
      (** pruned by the filter tree at exactly this stage *)
  | Rejected of Reject.t  (** survived filtering, failed the matcher *)
  | Matched of Substitute.t

val explain :
  ?snap:snapshot ->
  t ->
  Mv_relalg.Analysis.t ->
  (View.t * explanation) list
(** Account for every registered view, in registration order. Exact with
    respect to the rule: [Filtered] views are precisely the population
    minus {!candidates} (the filtering is replayed per view through
    {!Filter_tree.provenance}), and the rest are re-tested through the
    real matcher. Bumps no [rule.*] counters. With [use_filter] off,
    every view goes straight to the matcher. *)

val find_substitutes_spjg : t -> Mv_relalg.Spjg.t -> Substitute.t list

val reset_stats : t -> unit
(** Zero every instrument on {!field-obs}, the filter-tree counters
    included. *)
