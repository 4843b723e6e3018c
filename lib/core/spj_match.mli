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

val align_tables :
  relaxed_nulls:bool ->
  Mv_relalg.Analysis.t ->
  View.t ->
  (Mv_relalg.Equiv.t, Reject.t) result
(** Steps 1-2: table-set containment and extra-table elimination; on
    success the query's equivalence classes extended to the view's table
    set and by the CHECK equalities of its tables. Never writes the
    query's or the view's classes. *)

val equijoin_test :
  Mv_relalg.Equiv.t -> View.t -> ((int * int) list, Reject.t) result

(** The range data of one extended query class. *)
type class_range = {
  root : int;
  q_comp : Mv_relalg.Rset.t;  (** the query's own constraints *)
  q_test : Mv_relalg.Rset.t;  (** the same, strengthened by CHECKs *)
  v_set : Mv_relalg.Rset.t;  (** the view's ranges over the class *)
}

val class_ranges :
  Mv_relalg.Equiv.t ->
  checks:View.checks ->
  Mv_relalg.Analysis.t ->
  View.t ->
  class_range list
(** Every class the query or the view constrains (any other class passes
    the range test and compensates nothing). Assumes the equijoin test
    passed. *)

val contained : class_range -> bool
(** Does the view's range contain the query's? *)

val range_test :
  Mv_relalg.Equiv.t ->
  checks:View.checks ->
  Mv_relalg.Analysis.t ->
  View.t ->
  ( (int * Mv_relalg.Interval.t) list * (int * Mv_relalg.Rset.t) list,
    Reject.t )
  result

val residual_test :
  Mv_relalg.Equiv.t ->
  checks:View.checks ->
  Mv_relalg.Analysis.t ->
  View.t ->
  (Pred.t list, Reject.t) result

val run :
  ?relaxed_nulls:bool ->
  Mv_relalg.Analysis.t ->
  View.t ->
  (ok, Reject.t) result
