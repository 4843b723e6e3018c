(** Memo-based transformation optimizer: bottom-up exploration of
    connected table subsets, the view-matching rule invoked on every
    enumerated SPJG subexpression, substitutes competing on cost, plus the
    preaggregation alternative of section 3.3 (Example 4).

    [produce_substitutes] = the paper's "Alt" switch (the rule still runs
    when off, for the NoAlt measurement mode); the registry's [use_filter]
    is the "Filter" switch. *)

type config = { produce_substitutes : bool }

val default_config : config
(** Substitutes on. *)

type result = { plan : Plan.t; cost : float; rows : float; used_views : bool }

val enumerate_blocks : Mv_relalg.Spjg.t -> Mv_relalg.Spjg.t list
(** The SPJG subexpressions the memo invokes the view-matching rule on:
    one SPJ block per connected table subset (single tables included),
    plus the whole query when it aggregates. The advisor's benefit model
    mirrors this enumeration so its per-query saving estimates line up
    with what {!optimize} can actually exploit. *)

val substitute_cost :
  Mv_catalog.Schema.t ->
  Mv_catalog.Stats.t ->
  Mv_relalg.Spjg.t ->
  Mv_core.Substitute.t ->
  float * float
(** [(est_cost, est_rows)] of the substitute leaf the optimizer would
    build for [block] from this substitute — scan of the view (index-aware)
    plus any regrouping and backjoin surcharges. Exposed for the advisor's
    benefit model. *)

val direct_cost : Mv_catalog.Stats.t -> Mv_relalg.Spjg.t -> float
(** Cost of answering [block] directly from base tables (the scan leaf the
    memo starts from), for comparison against {!substitute_cost}. *)

val optimize :
  ?config:config ->
  ?spans:Mv_obs.Span.scope ->
  ?snap:Mv_core.Registry.snapshot ->
  ?record:(Mv_core.Filter_tree.query_info -> Mv_core.View.t list -> unit) ->
  ?fresh_only:bool ->
  Mv_core.Registry.t ->
  Mv_catalog.Stats.t ->
  Mv_relalg.Spjg.t ->
  result
(** The result depends only on the registry state (or [snap]), the
    statistics and the query: nothing is cached across calls. Plan reuse
    belongs to the serving front ([Mv_experiments.Serve]).

    With [spans], the whole call is recorded as an ["optimize"] span
    (table set, aggregate flag, final cost, [used_views]); under it, one
    ["rule"] span per enumerated subexpression carrying the candidate
    filtering and per-view match spans (see
    {!Mv_core.Registry.find_substitutes}), ["analyze"] spans for fresh
    analyses and ["cost"] spans for substitute leaf construction.

    Every call also feeds the [optimizer.phase.{analyze,match,cost,total}]
    latency histograms on the registry's obs instance (one wall-clock
    sample per phase activity), traced or not. Each [match] sample is one
    {!Mv_core.Registry.find_substitutes} call, so that histogram is the
    rule's time. Every substitute becomes a leaf, costed in full, and
    competes in the memo on cost.

    With [snap] (a pinned {!Mv_core.Registry.snapshot} of [registry]),
    every rule invocation across all enumerated subexpressions runs
    against exactly that registry state, so one optimization is atomic
    with respect to concurrent add/drop churn: the result is what
    sequential optimization at the snapshot's epoch would produce (the
    serving layer's linearizability property, proved by
    test/test_serve.ml).

    With [record], every rule invocation passes its search keys and
    candidate list to it ({!Mv_core.Registry.find_substitutes}). Without
    [fresh_only] the result is a deterministic function of those lists,
    in invocation order, given the query and the statistics: the serving
    front keeps them to revalidate a stored plan at a later epoch
    (DESIGN.md §8).

    With [fresh_only] (default [false]), every rule invocation rejects
    stale views with {!Mv_core.Reject.Stale} (freshness-aware mode,
    DESIGN.md §12). *)
