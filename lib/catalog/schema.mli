(** The catalog: table definitions plus foreign keys, with the lookups the
    matching algorithm and name resolution need. *)

open Mv_base

type t = {
  tables : Table_def.t list;
  foreign_keys : Foreign_key.t list;
}

exception Schema_error of string

val make : tables:Table_def.t list -> foreign_keys:Foreign_key.t list -> t

val find_table : t -> string -> Table_def.t option

val table_exn : t -> string -> Table_def.t
(** @raise Schema_error on unknown tables. *)

val resolve_column : t -> tables:string list -> string -> Col.t option
(** Resolve an unqualified column name against in-scope tables.
    @raise Schema_error when ambiguous. *)

val column_def : t -> Col.t -> Column.t option

val column_def_exn : t -> Col.t -> Column.t

val column_nullable : t -> Col.t -> bool

val reads_nullable : t -> Expr.t -> bool
(** Does the expression read a column the catalog declares nullable? *)

val column_dtype : t -> Col.t -> Dtype.t

val checks_for : t -> string list -> Pred.t list
(** CHECK constraints of all the given tables. *)

val fks_from : t -> string -> Foreign_key.t list

val fks_to : t -> string -> Foreign_key.t list

val validate : t -> unit
(** Sanity-check the catalog: FK targets exist and reference unique keys,
    PK columns exist and are not nullable, checks reference own columns.
    @raise Schema_error on violation. *)
