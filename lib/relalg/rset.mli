(** Range sets: normalized unions of disjoint intervals — the paper's
    disjunctive-range extension of section 3.1.2. *)

open Mv_base

type t = Interval.t list
(** invariant: non-empty, sorted, pairwise non-mergeable *)

val full : t

val is_full : t -> bool

val normalize : Interval.t list -> t

val of_interval : Interval.t -> t

val of_intervals : Interval.t list -> t

val union : t -> t -> t

val inter : t -> t -> t

val mem : Value.t -> t -> bool

val contains : outer:t -> inner:t -> bool

val equal : t -> t -> bool

val to_pred : Expr.t -> t -> Pred.t option
(** A predicate enforcing membership (OR over the intervals); [None] for
    the full set, [Bool false] for the empty one. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit
