(** Cardinality and cost estimation: a textbook uniformity/independence
    model, shared by the optimizer and the workload generator's
    cardinality targeting. *)

open Mv_base
module Spjg = Mv_relalg.Spjg
module Stats = Mv_catalog.Stats

val spj_rows : Stats.t -> tables:string list -> where:Pred.t list -> float

val group_rows : Stats.t -> input:float -> Expr.t list -> float

val block_rows : Stats.t -> Spjg.t -> float

val estimate_view_rows : ?name:string -> Stats.t -> Spjg.t -> int
(** Estimated row count of a view definition from base-table statistics.
    With [name], a statistics entry for the view itself (built from its
    actual contents at materialization time, or mark-and-rebuilt by
    [Mv_engine.Ivm.refresh_stats]) takes precedence over the analytic
    model. *)
