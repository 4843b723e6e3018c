(** A database instance: the catalog plus table contents (base tables and
    materialized views alike). *)

type built = {
  b_rows : Mv_base.Value.t array list;
  b_table : Mv_base.Value.t array Mv_base.Value.Key.t;
}
(** A hash-join build table and the row list it was built over. *)

type builds = {
  home : (string, Table.t) Hashtbl.t;
      (** the owning database's tables: only a row list one of them holds
          is cached *)
  built : (string * int array, built) Hashtbl.t;
      (** keyed by (table, build-key positions) *)
}

type t = {
  schema : Mv_catalog.Schema.t;
  tables : (string, Table.t) Hashtbl.t;
  declared_indexes : (string, string list list) Hashtbl.t;
  index_cache : (string * string list, Index.t) Hashtbl.t;
  build_cache : builds;
  epochs : (string, int) Hashtbl.t;
      (** per-table write epoch; read through {!table_epoch} *)
}

val create : Mv_catalog.Schema.t -> t
(** Empty tables for every catalog table. *)

val table : t -> string -> Table.t option

val table_exn : t -> string -> Table.t

val add_table : t -> Table.t -> unit
(** Register a derived table (e.g. materialized view contents), dropping
    the indexes and hash tables built over a table it replaces. *)

val insert : t -> string -> Mv_base.Value.t array -> unit
(** Also invalidates any built index and hash table over the table and
    bumps its write epoch. *)

val delete : t -> string -> Mv_base.Value.t array -> unit
(** Remove one instance of the row (bag semantics); invalidates built
    indexes and bumps the write epoch like {!insert}.
    @raise Invalid_argument when no instance matches. *)

val table_epoch : t -> string -> int
(** The table's write epoch: 0 until the first write, bumped by every
    {!insert}/{!delete}/{!touch}. View freshness marks record these
    (DESIGN.md §12). *)

val touch : t -> string -> unit
(** Record an out-of-band write to the table: invalidate built indexes
    and hash tables and bump its write epoch. Used by [Ivm] after
    rewriting a materialized view's rows in place. *)

val copy : t -> t
(** An independent instance with the same contents (row lists are shared
    as immutable values, per-table row chains diverge on write). Declared
    indexes carry over; built indexes, hash tables and write epochs start
    empty. *)

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
    makes over [rows], the whole stored row list of [table] keyed on the
    stored positions [key], and [true] when it was reused. An entry serves
    only the physically same list ([==]); a list that no table of the
    cache's owning database holds (an IVM delta or old slice, whose
    scratch database shares the cache) is built afresh and neither cached
    nor allowed to evict the live entry. The caller must not mutate the
    table. *)

val row_count : t -> string -> int

val table_stats : t -> string -> Mv_catalog.Stats.table_stats
(** One table's statistics from its actual contents — what {!stats} runs
    per table, exposed so a single view's entry can be built without
    rescanning the whole database ({!Exec.materialize_stats}). Every entry
    [Ivm.refresh_stats] derives must equal it. *)

val stats : t -> Mv_catalog.Stats.t
(** Per-table, per-column statistics computed from the actual contents in
    one pass: min/max/ndv plus equi-depth histograms ({!Mv_catalog.Stats}'s
    default bucket count) and exhaustive MCV lists for low-NDV columns —
    see {!Mv_catalog.Stats.build_column}. *)
