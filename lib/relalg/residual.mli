(** The paper's shallow expression-matching representation: a text template
    with column references hollowed out plus the ordered column list; two
    conjuncts match when templates are equal and columns in matching
    positions fall in the same (query) equivalence class. *)

open Mv_base

type shape = { tid : int; ids : int array }
(** A rendered template as matched: its {!Intern.templates} id and the
    {!Intern.cols} ids of its column references, left to right. *)

type t = { template : string; cols : Col.t list; shape : shape; pred : Pred.t }

val of_pred : Pred.t -> t

val expr_template : Expr.t -> string * Col.t list

val no_shape : shape
(** Matches nothing but itself; fills shape slots that have no
    expression. *)

val expr_shape : Expr.t -> shape
(** A bare column's shape is shared by every expression that mentions
    it. *)

val shapes_match : Equiv.t -> shape -> shape -> bool

val matches : Equiv.t -> t -> t -> bool

val pp : Format.formatter -> t -> unit
