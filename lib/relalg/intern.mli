(** The shared symbol domains behind the filter-tree keys (section 4).

    Every level key is a set drawn from one of three small vocabularies —
    table names (hub / source-table conditions), qualified column names
    (output / grouping / range-column conditions) or textual templates
    (residual predicates, output and grouping expressions). Each vocabulary
    is interned in its own {!Mv_util.Symbol} domain so ids stay dense and
    the {!Mv_util.Bitset} keys built from them stay one or two words wide.

    The domains are process-global on purpose: view descriptors are built
    once at registration and then shared across registries, experiment
    sweeps and query batches, so their interned keys must mean the same
    thing everywhere. Domains only ever grow; existing bitsets stay valid. *)

val tables : Mv_util.Symbol.domain
(** Table names (hub and source-table conditions). *)

val cols : Mv_util.Symbol.domain
(** Qualified column names (output / grouping / range-column
    conditions). *)

val templates : Mv_util.Symbol.domain
(** Textual templates (residual predicates, output and grouping
    expressions). *)

val table : string -> int
(** Intern a table name into {!tables}. *)

val col : Mv_base.Col.t -> int
(** Intern a qualified column into {!cols} (as [Col.to_string]). These
    are the dense ids {!Equiv} and the section 3 tests run on. No string
    is built when the column's table went through {!table_cols} before. *)

val col_of_id : int -> Mv_base.Col.t
(** Inverse of {!col} for every id it returned. *)

type 'a by_col
(** An append-only table indexed by column id, readable from any domain
    without locking. *)

val by_col : 'a -> 'a by_col
(** An empty table; unset slots read as the given value. *)

val by_col_get : 'a by_col -> int -> 'a

val by_col_set : 'a by_col -> int -> 'a -> unit
(** Set a slot, growing the table (under its mutex) when needed. Two
    domains may set one slot only to equal values. *)

val table_cols : Mv_catalog.Table_def.t -> int array
(** The ids of the table's columns in declaration order, interned on first
    sight and cached by table name. Lock-free after the first call. *)

val template : string -> int
(** Intern a template string into {!templates}. *)

val of_sset : Mv_util.Symbol.domain -> Mv_util.Sset.t -> Mv_util.Bitset.t
(** Intern every member of a string set into [dom] and collect the ids as
    a bitset key. *)

val freeze : unit -> unit
(** Freeze all three domains (see {!Mv_util.Symbol.freeze}): lookups of
    the registered vocabulary become lock-free, which is what query-side
    key construction from concurrently running domains hits almost
    exclusively. Every registry publication calls it; genuinely new
    strings (a query template no view ever used) still intern correctly
    via the mutex. *)
