(** An in-memory base table: definition plus rows (value arrays ordered
    like the definition's column list). *)

open Mv_base

type t = {
  def : Mv_catalog.Table_def.t;
  mutable rows : Value.t array list;
}

val create : Mv_catalog.Table_def.t -> t

val of_rows : Mv_catalog.Table_def.t -> Value.t array list -> t

val name : t -> string

val def_of : t -> Mv_catalog.Table_def.t

val row_count : t -> int

val col_index : t -> string -> int option

val col_index_exn : t -> string -> int

val edit_rows :
  (Value.t array -> bool) -> int -> Value.t array list -> Value.t array list option
(** [edit_rows drop n rows]: [rows] without the first [n] rows [drop]
    claims, in one walk that stops at the last of them (the rest of the
    list is shared, and [drop] sees no row after it). [None] when fewer
    than [n] rows are claimed. *)

val check_violations : t -> Pred.t list
(** CHECK constraints some row violates. *)

val null_violations : t -> string list
(** Not-null columns containing a NULL. *)
