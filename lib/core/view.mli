(** A materialized view: its SPJG definition plus the precomputed
    description the paper keeps in memory for fast filtering (section 4). *)

open Mv_base
module Sset = Mv_util.Sset
module Bitset = Mv_util.Bitset

(** The view's filter-tree keys, interned once at registration; field
    order mirrors the filter-tree levels. *)
type keys = {
  hub : Bitset.t;
  source_tables : Bitset.t;
  output_exprs : Bitset.t;
  output_cols : Bitset.t;
  residuals : Bitset.t;
  range_cols : Bitset.t;
  grouping_exprs : Bitset.t;
  grouping_cols : Bitset.t;
  range_classes : Bitset.t list;
      (** full range-constraint list for the strong post-check *)
}

(** The CHECK constraints of a view's tables (section 3.1.2), classified
    and resolved to column ids; shared by views over the same tables. *)
type checks = {
  check_eqs : (int * int) list;
  check_ranges : (int * Mv_relalg.Rset.t) list;
      (** per column: the intersection of its CHECK ranges *)
  check_residuals : Mv_relalg.Residual.t list;
}

(** Everything the section 3 tests read from the view, computed once at
    registration, so a rule invocation does only query-dependent work. *)
type matching = {
  fk_edges : Fk_graph.edge list;
      (** {!Fk_graph.equated_edges}: filtered by mode per match *)
  checks : checks;
  nontrivial : int array list;  (** the nontrivial classes, as ids *)
  range_sets : Mv_relalg.Range.map;
      (** the constrained classes' range sets, keyed by class root *)
  out_cols : int array;
      (** the column id of each bare-column output, in output order *)
  out_col_names : string array;  (** their names *)
  expr_outs : (Mv_relalg.Residual.shape * string) list;
      (** the non-column scalar outputs *)
  sum_outs : (Mv_relalg.Residual.shape * string) list;
      (** the SUM outputs, by argument shape *)
  count_out : string option;  (** the count_big( * ) output *)
}

type t = {
  name : string;
  analysis : Mv_relalg.Analysis.t;
  matching : matching;
  hub : Sset.t;
  source_tables : Sset.t;
  keys : keys;  (** the filter-tree keys *)
  mutable row_count : int;  (** statistics for the cost model *)
  mutable indexes : string list list;
      (** secondary indexes over output columns; considered automatically
          by the cost model and built at materialization time *)
  stale : bool Atomic.t;
      (** freshness mark: set when a base table is written without the
          view being maintained; read through {!is_stale} *)
}

exception Rejected of string

val cols_to_strings : Col.Set.t -> Sset.t

val create :
  ?relaxed_nulls:bool ->
  ?row_count:int ->
  ?indexes:string list list ->
  Mv_catalog.Schema.t ->
  name:string ->
  Mv_relalg.Spjg.t ->
  t
(** Validates indexability and precomputes the descriptor.
    @raise Rejected when the definition is not indexable. *)

val spjg : t -> Mv_relalg.Spjg.t

val is_stale : t -> bool
(** [true] once a base-table write outran the view's contents. Stale views
    still match by default; a [fresh_only] matcher rejects them with
    {!Reject.Stale}. *)

val mark_stale : t -> unit

val mark_fresh : t -> unit
(** Clear the staleness mark: the contents correspond to the base tables
    again (materialized, or maintained through the last write). *)

val is_aggregate : t -> bool

val output_for_id : t -> Mv_relalg.Equiv.t -> int -> string option
(** The view output for a column id, looked up through [equiv] (section
    3.1.3): an output on the column itself first, else the earliest
    bare-column output in its class. *)

(** {2 Key sets as columns and strings}

    The sets behind {!keys}, uninterned, computed on each call: for
    diagnostics and the reference filter of the tests. *)

val output_expr_templates : t -> Sset.t

val extended_output_cols : t -> Col.Set.t

val residual_templates : t -> Sset.t

val reduced_range_cols : t -> Sset.t
(** Range-constrained columns in trivial equivalence classes — the weak
    range condition key (section 4.2.5). *)

val range_classes : t -> Col.Set.t list
(** The full range-constraint list: one class per constrained range. *)

val grouping_expr_templates : t -> Sset.t

val extended_grouping_cols : t -> Col.Set.t

val as_table_def : Mv_catalog.Schema.t -> t -> Mv_catalog.Table_def.t
(** The view exposed as a table definition, so substitutes execute and
    cost like base-table scans. *)

val pp : Format.formatter -> t -> unit
