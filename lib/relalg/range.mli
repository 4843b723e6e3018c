(** Range extraction: one range set per column equivalence class, keyed by
    the class root id. Handles both conjunctive range predicates and the
    disjunction extension (OR of ranges on one column). *)

open Mv_base

type map = (int * Rset.t) list
(** (class root, range set), one entry per class with a constraint *)

val constraints :
  (Col.t * Pred.cmp * Value.t) list ->
  (Col.t * Interval.t list) list ->
  (int * Rset.t) list
(** Each range conjunct as (column id, set). *)

val of_cols : Equiv.t -> (int * Rset.t) list -> map
(** Intersect per-column constraints by class. *)

val build :
  Equiv.t ->
  (Col.t * Pred.cmp * Value.t) list ->
  (Col.t * Interval.t list) list ->
  map

val find : Equiv.t -> map -> Col.t -> Rset.t
(** Range set for the class containing the column; [Rset.full] when
    unconstrained. *)

val constrained_roots : map -> int list
(** Roots of the classes whose set is not full. *)

val pp : Equiv.t -> Format.formatter -> map -> unit
