(** Column routing for substitute construction: to view output columns
    (sections 3.1.3/3.1.4), with an optional fallback to backjoined base
    tables (section 7). Routers collect the columns they fail to resolve so
    the matcher can plan a backjoining second pass. *)

open Mv_base

type t = {
  view : View.t;
  backjoins : string list;
  missing : Col.t list ref;
}

val plain : View.t -> t

val with_backjoins : View.t -> string list -> t

val missing_tables : t -> string list
(** Tables owning the columns no routing could resolve, sorted. *)

val route_id : t -> Mv_relalg.Equiv.t -> int -> Col.t option
(** Resolve a column id through [equiv] to a view output column, else to a
    backjoined base column equivalent to it; records the miss otherwise. *)

val route : t -> Mv_relalg.Equiv.t -> Col.t -> Col.t option
(** {!route_id} on the column's id. *)

val route_expr : t -> Mv_relalg.Equiv.t -> int -> Expr.t option

val backjoin_preds : View.t -> string -> Pred.t list option
(** Join predicates tying the view back to the table on a unique key the
    view outputs (through the view's own classes); [None] when no key is
    fully available. *)
