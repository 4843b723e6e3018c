(** The filter tree of section 4: a stack of lattice indexes — one per
    partitioning condition — that narrows the view population to a small
    candidate set before the per-view tests run.

    Level order follows the paper's implementation: hubs, source tables,
    output expressions, output columns, residual predicates, range
    constraints; aggregation views get two more levels (grouping
    expressions, grouping columns) while SPJ views terminate early, since
    an aggregation view can never answer an SPJ query. The views a search
    reaches then pass two checks that are not levels: the strong range
    condition of section 4.2.5 and, for aggregation views, the
    SUM-argument condition.

    A tree is persistent: {!insert} and {!remove} return a new tree and
    never write the one passed in, so a tree may be searched from any
    number of domains while newer versions are built. *)

type level =
  | Hubs
  | Source_tables
  | Output_exprs
  | Output_cols
  | Residuals
  | Range_cols
  | Grouping_exprs
  | Grouping_cols

val level_name : level -> string

type plan = P_level of level * plan | P_split of plan * plan | P_bucket

(** A point on a view's path through the tree where it can be pruned:
    one of the indexed levels, the SPJ/aggregate split (an aggregation
    view can never answer an SPJ query), or one of the two checks that
    run on a bucket's views after navigation: the strong range check of
    section 4.2.5, then, on aggregation views, the SUM-argument check
    ({!sum_args_ok}). *)
type stage =
  | Stage_level of level
  | Stage_agg_split
  | Stage_strong_range
  | Stage_sum_args

val plan_levels : plan -> level list
(** Levels in navigation order (split branches concatenated, duplicates
    possible across branches but not produced by the built-in plans). *)

val default_plan : plan

val backjoin_plan : plan
(** Without the two output-column/expression levels, which stop being
    necessary conditions once backjoins can restore missing columns. *)

type t

val create : ?plan:plan -> unit -> t
(** An empty tree. *)

type query_info = {
  source_tables : Mv_util.Bitset.t;
  output_expr_templates : Mv_util.Bitset.t;
  output_classes : Mv_util.Bitset.t list;
  residual_templates : Mv_util.Bitset.t;
  extended_range_cols : Mv_util.Bitset.t;
  grouping_expr_templates : Mv_util.Bitset.t;
  grouping_classes : Mv_util.Bitset.t list;
  sum_classes : Mv_util.Bitset.t list;
  is_aggregate : bool;
}

val query_info : Mv_relalg.Analysis.t -> query_info
(** The query-side search keys (interned bitsets over the
    {!Mv_relalg.Intern} domains), built with the analysis
    ({!Mv_relalg.Analysis.keys}). *)

val strong_range_ok : query_info -> View.t -> bool
(** The full range-constraint condition of section 4.2.5, applied per
    candidate after the tree navigates by the weak condition. *)

val sum_args_ok : query_info -> View.t -> bool
(** The SUM-argument condition, a ninth beside section 4.2's eight: each
    query class of a bare-column SUM or AVG argument
    ([sum_classes]) meets the view's SUM key ({!View.keys}[.sum_args]).
    Applied to each navigated aggregation view, after
    {!strong_range_ok}. Necessary because an aggregation view computes a
    query's SUM or AVG only from a SUM output over an equivalent
    argument, with or without backjoins (DESIGN.md §5). *)

val insert : t -> View.t -> t * stage
(** The tree with the view added, and the view's {e reshaped stage}: the
    first level on its path whose lattice gained a key, or
    [Stage_strong_range] when every key on the path was already there and
    the view only joined a bucket. Each level on the view's path gets a
    new lattice ({!Lattice.update}); every lattice off the path is
    shared. *)

val remove : t -> View.t -> t * stage
(** The tree with the view dropped, and its reshaped stage: the first
    level on its path whose lattice lost a key, or [Stage_strong_range]
    when none did. Subtree counts along its path decrease and lattice keys
    whose subtree emptied are removed, so churn never accumulates dead
    nodes. Shares what {!insert} shares. *)

val search : ?obs:Mv_obs.Registry.t -> t -> query_info -> View.t list
(** The candidate views for the query's search keys, in the search's
    order. One walk with one {!Lattice.scratch}, allocating nothing per
    node. With [obs], each search bumps [filter_tree.searches], the
    per-level [filter_tree.level.<name>.in]/[.out] candidate counters (how
    many views entered the level's nodes and how many survived into their
    children), [filter_tree.strong_range.in]/[.out] for the
    post-navigation section 4.2.5 check, and
    [filter_tree.sum_arguments.in]/[.out] for the SUM-argument check of
    the aggregation views that pass it. *)

val candidates :
  ?obs:Mv_obs.Registry.t -> t -> Mv_relalg.Analysis.t -> View.t list
(** [search] over the analysis' keys ({!query_info}). *)

val stats : t -> int
(** Total lattice nodes across all levels. *)

(** {1 Rejection provenance ("why-not")} *)

val stage_name : stage -> string
(** [level_name] for levels, ["agg-split"], ["strong-range"],
    ["sum-arguments"]. *)

type fate = Pruned of stage  (** first stage whose test the view fails *)
          | Passed  (** the view reaches the candidate set *)

val provenance : t -> query_info -> View.t -> stage list * fate
(** Replay the tree's plan for one view: the stages the view enters, in
    navigation order (ending at the stage that pruned it, or spanning its
    whole path when it passed), and its fate. Exact with respect to
    {!candidates} — the view is in the candidate set iff its fate is
    [Passed] — because each stage applies the same predicate the search
    applies to the same precomputed key. Costs one predicate evaluation
    per stage on the view's path; the indexed search is untouched. *)

val fate : t -> query_info -> View.t -> fate

val unchanged_by : t -> query_info -> View.t -> reshaped:stage -> bool
(** The screen for one add or drop: [true] when adding or dropping [v],
    whose reshaped stage ({!insert}, {!remove}) is [reshaped], provably
    leaves {!search}'s result for [qi] unchanged, with the same views in
    the same order. That holds when [v]'s {!provenance} path stops at a
    stage no later than [reshaped], where [Stage_strong_range], the
    bucket's stage, stands for both post-navigation checks: a view
    pruned by either only joins or leaves a bucket's list, and the check
    drops it from the result. [false] means the result may have
    changed: [v] passes, or a key it passes on the way was linked or
    unlinked, which can reorder the other hits. Reads only the tree's
    plan, so any version of the tree gives the same answer. *)

val stages : t -> stage list
(** Every stage of the tree's plan in navigation order (split branches
    concatenated), then [Stage_strong_range] and [Stage_sum_args]. *)
