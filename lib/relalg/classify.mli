(** Classification of CNF conjuncts into the paper's groups
    (section 3.1.2): column equalities (PE), ranges (PR) — including
    disjunctions of ranges on a single column, the paper's extension — and
    residuals (PU). *)

open Mv_base

type classified = {
  col_eqs : (Col.t * Col.t) list;
  ranges : (Col.t * Pred.cmp * Value.t) list;
      (** normalized to column-op-constant; flipped comparisons are
          reoriented *)
  disj_ranges : (Col.t * Interval.t list) list;
      (** one entry per OR-of-ranges conjunct *)
  residuals : Pred.t list;
}

val classify_one :
  Pred.t ->
  [ `Col_eq of Col.t * Col.t
  | `Range of Col.t * Pred.cmp * Value.t
  | `Disj_range of Col.t * Interval.t list
  | `Residual of Pred.t ]

val selectivity : Mv_catalog.Stats.t -> Pred.t -> float
(** The fraction of rows one conjunct keeps, dispatched on
    {!classify_one}: [1/max(ndv)] for a column equality, histograms and
    MCVs for a range, the sum of the normalized intervals' fractions for a
    disjunctive range, fixed guesses for residuals. {!Mv_opt.Cost} and
    the executor's join order both estimate with it. *)

val classify : Pred.t list -> classified
