(** The filter tree of section 4: a stack of lattice indexes — one per
    partitioning condition — that narrows the view population to a small
    candidate set before the per-view tests run.

    Level order follows the paper's implementation: hubs, source tables,
    output expressions, output columns, residual predicates, range
    constraints; aggregation views get two more levels (grouping
    expressions, grouping columns) while SPJ views terminate early, since
    an aggregation view can never answer an SPJ query.

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
    view can never answer an SPJ query), or the post-navigation strong
    range check of section 4.2.5, which runs on a bucket's views. *)
type stage =
  | Stage_level of level
  | Stage_agg_split
  | Stage_strong_range

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
  is_aggregate : bool;
}

val query_info : Mv_relalg.Analysis.t -> query_info
(** The query-side search keys (interned bitsets over the
    {!Mv_relalg.Intern} domains), built with the analysis
    ({!Mv_relalg.Analysis.keys}). *)

val view_key : level -> View.t -> Mv_util.Bitset.t
(** The view's precomputed key for a level (from {!View.keys}). *)

val strong_range_ok : query_info -> View.t -> bool
(** The full range-constraint condition of section 4.2.5, applied per
    candidate after the tree navigates by the weak condition. *)

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
    order. With [obs], each search bumps [filter_tree.searches], the
    per-level [filter_tree.level.<name>.in]/[.out] candidate counters (how
    many views entered the level's nodes and how many survived into their
    children), and [filter_tree.strong_range.in]/[.out] for the
    post-navigation section 4.2.5 check. *)

val candidates :
  ?obs:Mv_obs.Registry.t -> t -> Mv_relalg.Analysis.t -> View.t list
(** [search] over the analysis' keys ({!query_info}). *)

val stats : t -> int
(** Total lattice nodes across all levels. *)

(** {1 Rejection provenance ("why-not")} *)

val stage_name : stage -> string
(** [level_name] for levels, ["agg-split"], ["strong-range"]. *)

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
    stage no later than [reshaped]. [false] means the result may have
    changed: [v] passes, or a key it passes on the way was linked or
    unlinked, which can reorder the other hits. Reads only the tree's
    plan, so any version of the tree gives the same answer. *)

val stages : t -> stage list
(** Every stage of the tree's plan in navigation order (split branches
    concatenated), with [Stage_strong_range] last. *)
