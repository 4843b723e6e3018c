(** A database instance: the catalog plus table contents (base tables and
    materialized views alike). *)

type built = {
  b_rows : Mv_base.Value.t array list;
  b_table : Mv_base.Value.t array Mv_base.Value.Key.t;
}
(** A hash-join build table and the row list it was built over. *)

type delta = {
  ins : Mv_base.Value.t array list;  (** rows inserted *)
  del : Mv_base.Value.t array list;  (** row instances deleted *)
}

type batch = (string * delta) list
(** One write: per-table inserts and deletes. *)

exception Invalid_batch of string
(** {!write} cannot apply the batch. The message names the table, and the
    column for a misfit value. *)

type t = {
  schema : Mv_catalog.Schema.t;
  tables : (string, Table.t) Hashtbl.t;
  declared_indexes : (string, string list list) Hashtbl.t;
  index_cache : (string * string list, Index.t) Hashtbl.t;
  build_cache : (string * int array, built) Hashtbl.t;
      (** keyed by (table, build-key positions) *)
}

val create : Mv_catalog.Schema.t -> t
(** Empty tables for every catalog table. *)

val table : t -> string -> Table.t option

val table_exn : t -> string -> Table.t

val add_table : t -> Table.t -> unit
(** Register a derived table (e.g. materialized view contents), dropping
    the indexes and hash tables built over a table it replaces. *)

val write : t -> batch -> unit
(** The one way base-table rows change. The whole batch is checked first:
    every table is known and named once, every row has the table's arity,
    every inserted value fits its column (NULL only in a nullable column,
    otherwise the column's type, an Int also in a Float column), and no
    row is deleted more often than the table holds it after the batch's
    inserts. Then each table with a non-empty delta takes its inserts,
    consed on in order, and loses for each delete the first row
    structurally equal to it, in order — and the indexes and hash tables
    built over it are dropped, once.
    @raise Invalid_batch when a check fails; nothing is written. *)

val touch : t -> string -> unit
(** Record an out-of-band write to the table: drop the indexes and hash
    tables built over it. Used by [Ivm] after rewriting a materialized
    view's rows in place. *)

val copy : t -> t
(** An independent instance with the same contents (row lists are shared
    as immutable values, per-table row chains diverge on write). Declared
    indexes carry over; built indexes and hash tables start empty. *)

val declare_index : t -> table:string -> cols:string list -> unit
(** Declare a secondary index (on a base table or a materialized view);
    built lazily on first use. *)

val declared_indexes : t -> string -> string list list

val index : t -> table:string -> cols:string list -> Index.t option
(** The built index, if declared (building it on first call). *)

val build_table :
  t ->
  table:string ->
  key:int array ->
  Mv_base.Value.t array list ->
  (Mv_base.Value.t array list -> Mv_base.Value.t array Mv_base.Value.Key.t) ->
  Mv_base.Value.t array Mv_base.Value.Key.t * bool
(** [build_table t ~table ~key rows build]: the hash table [build rows]
    makes over [rows], the current row list of [table] keyed on the stored
    positions [key], and [true] when it was reused. An entry serves only
    the physically same list ([==]). The caller must not mutate the
    table. *)

val row_count : t -> string -> int

val table_stats : t -> string -> Mv_catalog.Stats.table_stats
(** One table's statistics from its actual contents, every column built —
    what {!stats} runs per table, exposed so a single view's entry can be
    built without rescanning the whole database
    ({!Exec.materialize_stats}, [Ivm.attach]). *)

val rebuild_stats :
  t ->
  string ->
  Mv_catalog.Stats.table_stats option ->
  Mv_catalog.Stats.table_stats
(** [rebuild_stats t name prev]: the table's entry rebuilt on the demand
    its previous entry [prev] showed ({!Mv_catalog.Stats.rebuild}): the
    columns [prev] read built now from its contents, as {!table_stats}
    builds them, the rest deferred. A deferred column holds the table, not
    its rows, and builds from the rows it holds at its first read.
    [Ivm.refresh_stats] rebuilds a maintained view's entry with it. *)

val stats : t -> Mv_catalog.Stats.t
(** Per-table, per-column statistics computed from the actual contents in
    one pass: min/max/ndv plus equi-depth histograms ({!Mv_catalog.Stats}'s
    default bucket count) and exhaustive MCV lists for low-NDV columns —
    see {!Mv_catalog.Stats.build_column}. *)
