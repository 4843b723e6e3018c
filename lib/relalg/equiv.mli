(** Column equivalence classes (section 3.1.1): every column of every
    referenced table starts in its own class; each column-equality
    predicate merges two classes.

    Columns are dense {!Intern.cols} ids and the partition lives in one
    int array: each column names its class root directly and links to the
    next member of its class. Merges keep that invariant, so every read
    is a plain load and no read ever writes — one view's classes can be
    read from any number of domains. The [Col.t] functions at the end
    resolve ids through {!Intern} and exist for diagnostics and tests. *)

open Mv_base

type t

val create : unit -> t
(** No columns registered. *)

val build :
  Mv_catalog.Schema.t ->
  tables:string list ->
  col_eqs:(Col.t * Col.t) list ->
  t

val copy : t -> t
(** An independent copy: merges on the copy do not affect the original. *)

val copy_with_capacity : t -> int -> t
(** {!copy} with room for every id below the bound, so registering more
    columns in the copy does not reallocate. *)

val add_tables : Mv_catalog.Schema.t -> t -> string list -> unit
(** Register every column of the tables as trivial classes (used when the
    matcher conceptually adds a view's extra tables to the query). *)

val table_ids : Mv_catalog.Schema.t -> string -> int array
(** The ids of a table's columns ({!Intern.table_cols}). *)

val add_table_ids : t -> int array -> unit

(** {2 Ids} *)

val capacity : t -> int
(** One more than the largest id the arrays hold room for. *)

val merge_ids : t -> int -> int -> unit
(** Union by rank; registers unknown ids first. *)

val root : t -> int -> int
(** The class representative; an unregistered id is its own singleton. *)

val same_id : t -> int -> int -> bool

val is_trivial : t -> int -> bool

val class_ids : t -> int -> int list

val class_key : t -> int -> Mv_util.Bitset.t
(** The members of the class, as a filter-tree key. *)

val fold_class : (int -> 'a -> 'a) -> t -> int -> 'a -> 'a

val exists_in_class : (int -> bool) -> t -> int -> bool

val nontrivial_roots : t -> int list
(** One id per class with more than one member, increasing. *)

val nontrivial_ids : t -> int array list
(** The classes with more than one member. *)

(** {2 Columns} *)

val merge : t -> Col.t -> Col.t -> unit

val same : t -> Col.t -> Col.t -> bool

val class_of : t -> Col.t -> Col.Set.t

val classes : t -> Col.Set.t list
(** The full partition, including trivial singleton classes. *)

val nontrivial_classes : t -> Col.Set.t list

val class_within : t -> Col.Set.t -> bool
(** Is every member of the given set in one class of [t]? *)

val to_colset : int list -> Col.Set.t

val pp : Format.formatter -> t -> unit
