(** Computing the query's output expressions from the view's output
    (section 3.1.4) and the aggregation rewrites of section 3.3. Query
    expressions come with their analysis shapes; the view's were taken at
    registration ({!View.matching}). *)

open Mv_base
module Spjg = Mv_relalg.Spjg

val scalar :
  Routing.t ->
  Mv_relalg.Equiv.t ->
  Expr.t ->
  Mv_relalg.Residual.shape ->
  Expr.t option
(** A query scalar expression (with its shape) rewritten over the view's
    output: constants copy, bare columns route through the query classes,
    complex expressions first look for an identical view output (template
    match) then fall back to computing from routable source columns. *)

val sum_col :
  View.t -> Mv_relalg.Equiv.t -> Mv_relalg.Residual.shape -> string option
(** The view's SUM output whose argument matches the shape under the query
    classes. *)

val out_item :
  Routing.t ->
  Mv_relalg.Equiv.t ->
  situation:[ `Plain | `Agg_over_spj | `Agg_same | `Agg_regroup ] ->
  Spjg.out_item ->
  Mv_relalg.Residual.shape ->
  (Spjg.out_item, Reject.t) result
(** Rewrite one output item, given with its analysis shape, for the four
    aggregation situations: plain SPJ; aggregation over an SPJ view
    (aggregates keep their shape); same grouping (aggregates map to the
    view's sum/count columns); regrouping (count becomes a coalesced sum of
    counts, SUM a sum of sums, AVG a SUM/SUM). *)

val out_items :
  Routing.t ->
  Mv_relalg.Equiv.t ->
  situation:[ `Plain | `Agg_over_spj | `Agg_same | `Agg_regroup ] ->
  Spjg.out_item list ->
  Mv_relalg.Residual.shape array ->
  (Spjg.out_item list, Reject.t) result
(** The items with their shapes (aligned, as in the analysis). *)
