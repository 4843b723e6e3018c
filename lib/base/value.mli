(** Runtime values with SQL NULL semantics. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Date of int  (** days since 1970-01-01 *)

exception Type_error of string

val dtype_of : t -> Dtype.t option
(** [None] for NULL. *)

val is_null : t -> bool

val as_float : t -> float option
(** Numeric view of Int/Float; [None] otherwise. *)

val cmp3 : t -> t -> int option
(** SQL three-valued comparison: [None] when either side is NULL.
    Int and Float compare numerically. @raise Type_error on incomparable
    types. *)

val order : t -> t -> int
(** A total order used for grouping, sorting and multiset comparison:
    NULL sorts first; mixed numerics compare numerically; otherwise values
    order by type tag. *)

val equal : t -> t -> bool
(** Equality under {!order} (so [equal Null Null = true], unlike SQL [=]). *)

val hash : t -> int
(** A hash consistent with {!order}: values it calls equal hash alike, so
    [Int 1] and [Float 1.0] collide, as do [-0.0] and [0.0]. *)

module Key : Hashtbl.S with type key = t array
(** Hash tables keyed by exact value tuples (row, join and group keys),
    compared with {!order} column by column. Unlike a rendered string key
    this never merges distinct floats; like {!order} it puts NULLs in one
    class and matches [Int 1] with [Float 1.0]. *)

val to_string : t -> string
(** SQL literal syntax ([NULL], [42], ['text'], [DATE '1995-01-01'], ...). *)

val pp : Format.formatter -> t -> unit
