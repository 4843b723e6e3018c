(** The SPJ-part tests of sections 3.1-3.2: table alignment (including
    extra-table elimination), the three subsumption tests, and the raw
    compensation data they produce. CHECK constraints strengthen the query
    side of every implication, as section 3.1.2 prescribes. The tests read
    the view's precomputed {!View.matching} and work on column ids. *)

open Mv_base

type ok = {
  q_equiv : Mv_relalg.Equiv.t;
      (** query classes extended with the view's extra tables, the FK join
          conditions used to eliminate them, and check-derived equalities;
          the query's own classes, shared, when there is nothing to add *)
  comp_equalities : (int * int) list;  (** column id pairs *)
  comp_ranges : (int * Mv_relalg.Interval.t) list;
      (** (class member, bounds still to enforce) *)
  comp_range_sets : (int * Mv_relalg.Rset.t) list;
      (** disjunctive compensations: enforce membership of the whole set *)
  comp_residuals : Pred.t list;
}

val run :
  ?relaxed_nulls:bool ->
  Mv_relalg.Analysis.t ->
  View.t ->
  (ok, Reject.t) result
