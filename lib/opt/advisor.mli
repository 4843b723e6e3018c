(** Workload-driven view selection (ROADMAP item 1): mine-costed
    candidates in, a budgeted view set out.

    {!Selection} is the purely numeric core — greedy seeding plus
    first-improvement local search (add / drop / swap / merge moves), with
    an exhaustive search on small instances — kept free of catalog and
    registry types so test/test_advisor.ml can property-test it in
    isolation. {!advise} is the glue: it prices each candidate with the
    optimizer's own cost model ({!Optimizer.substitute_cost} over
    {!Optimizer.enumerate_blocks}), adds a maintenance term derived from
    the measured [bench --maintain] delta-vs-rematerialize crossover, and
    runs the core. *)

module Spjg = Mv_relalg.Spjg

module Selection : sig
  type candidate = {
    id : string;
    size : float;  (** storage footprint (estimated rows) *)
    maint : float;  (** workload-total maintenance cost if selected *)
    saves : (int * float) list;
        (** [(query index, cost of that query when answered via this
            candidate)]; {!instance} drops entries not strictly below the
            query's base cost and keeps the minimum per query *)
  }

  type instance

  exception Invalid of string

  val instance :
    base:float array -> budget:float -> candidate list -> instance
  (** Validating constructor. [base.(i)] is query [i]'s cost with no views
      at all; [budget] bounds the summed [size] of a selection.
      @raise Invalid on negative/NaN inputs or out-of-range save
      indices. *)

  val n_candidates : instance -> int

  val objective : instance -> int list -> float
  (** Total workload cost of a selection (candidate indices): per-query
      minimum over base and the chosen candidates' saves, plus the chosen
      candidates' maintenance. *)

  val size_of : instance -> int list -> float
  val within_budget : instance -> int list -> bool

  val greedy : instance -> int list
  (** Greedy seeding: repeatedly add the candidate with the largest
      positive net gain that still fits. Deterministic (lowest index wins
      ties); always within budget. *)

  val local_search : instance -> int list -> int list
  (** First-improvement local search from a feasible starting selection:
      add, drop, swap (1 for 1) and merge (2 for 1) moves, each accepted
      only when it strictly improves {!objective} and respects the
      budget — so the result is never worse than the start.
      @raise Invalid when the starting selection exceeds the budget. *)

  val exhaustive_limit : int
  (** Instances with at most this many candidates are solved exactly. *)

  val brute_force : instance -> int list
  (** Exact optimum by subset enumeration.
      @raise Invalid beyond {!exhaustive_limit} candidates. *)

  val select : instance -> int list
  (** {!brute_force} up to {!exhaustive_limit} candidates, otherwise
      {!local_search} from the {!greedy} seed. Deterministic. *)
end

type config = {
  budget : float;  (** storage budget in estimated rows; [infinity] = none *)
  write_fraction : float;
      (** maintenance events per workload query (write/read mix) *)
  batch_fraction : float;
      (** update batch size as a fraction of the maintained state *)
  maintain_speedup : float;
      (** measured delta-vs-rematerialize advantage at that batch size
          (EXPERIMENTS.md maintain section: 1.5-1.8x at small batches) *)
}

val default_config : config

type pick = {
  name : string;
  spjg : Spjg.t;
  rows : int;  (** estimated size charged against the budget *)
  benefit : float;  (** modeled workload query-cost reduction, standalone *)
  maint : float;  (** modeled workload-total maintenance cost *)
}

type advice = {
  picks : pick list;  (** in candidate order; within budget *)
  cost_before : float;  (** summed view-free query costs *)
  cost_after : float;
      (** modeled workload cost under the picks, maintenance included *)
  budget : float;
  used_budget : float;
  considered : int;  (** candidates accepted into the pricing pool *)
  rejected : int;  (** candidates the registry would not index *)
}

val maintenance_cost :
  config ->
  Mv_catalog.Stats.t ->
  Spjg.t ->
  rows:int ->
  nqueries:int ->
  float
(** Modeled workload-total maintenance cost of keeping one view of [rows]
    rows fresh across [nqueries] queries' worth of traffic: per event, a
    delta pass over the changed fraction at the measured
    delta-vs-rematerialize advantage, capped at a full rematerialization
    (the maintain-vs-rematerialize policy). *)

val advise :
  ?config:config ->
  ?weights:float array ->
  Mv_catalog.Schema.t ->
  Mv_catalog.Stats.t ->
  candidates:(string * Spjg.t) list ->
  queries:Spjg.t list ->
  advice
(** Price every candidate against every query (mirroring the memo's block
    enumeration so the modeled savings are ones {!Optimizer.optimize} can
    actually realize) and select under the budget. Purely model-driven and
    deterministic: no wall-clock input.

    [weights] (one per query, finite, [>= 0]) scales each query's base
    cost and savings — pass observed per-query frequencies from the
    health ledger ([Mv_core.Health.query_frequencies]) to select for an
    observed trace instead of the uniform generator workload; the
    maintenance term then scales with the trace length. [cost_before] /
    [cost_after] are weighted accordingly.
    @raise Invalid_argument on a length mismatch or bad weight. *)

val register_picks : Mv_core.Registry.t -> advice -> unit
(** Register every pick through the dynamic registry (one epoch bump
    each), with its estimated row count.
    @raise Mv_core.Registry.Duplicate_view on name collision. *)
