(** Derived information about an SPJG block: classified predicate
    components, column equivalence classes, per-class ranges, residual
    templates and the filter-tree search keys — computed once per query
    subexpression and once per view (the paper's in-memory "view
    description"). Columns are resolved to dense {!Intern.cols} ids in the
    same pass, so the section 3 tests never touch a string. *)

open Mv_base
module Sset = Mv_util.Sset
module Bitset = Mv_util.Bitset

(** The query-side filter-tree search keys (section 4.2), interned into the
    shared {!Intern} domains. *)
type keys = {
  source_tables : Bitset.t;
  output_expr_templates : Bitset.t;
  output_classes : Bitset.t list;
      (** query equivalence class (interned) of each bare-column output *)
  residual_templates : Bitset.t;
  extended_range_cols : Bitset.t;
      (** all columns of every range-constrained query class *)
  grouping_expr_templates : Bitset.t;
  grouping_classes : Bitset.t list;
  is_aggregate : bool;
}

type t = {
  spjg : Spjg.t;
  schema : Mv_catalog.Schema.t;
  table_set : Sset.t;
  table_key : Bitset.t;  (** [table_set] interned in {!Intern.tables} *)
  classified : Classify.classified;
  equiv : Equiv.t;
  ranges : Range.map;  (** keyed by class root in [equiv] *)
  residuals : Residual.t list;
  out_shapes : Residual.shape array;
      (** aligned with [spjg.out]: the shape of a scalar output, or of the
          argument of a SUM/AVG; {!Residual.no_shape} for count *)
  group_shapes : Residual.shape array;  (** aligned with [spjg.group_by] *)
  keys : keys;  (** built with the rest of the analysis *)
}

val keys : t -> keys

val is_template_expr : Expr.t -> bool
(** Is the expression matched by its template (neither a bare column nor a
    constant)? *)

val analyze : Mv_catalog.Schema.t -> Spjg.t -> t

val rebind : t -> Spjg.t -> t
(** Re-attach a different SPJG sharing the analysis' tables and WHERE:
    only the output/grouping shapes and keys are recomputed, so the
    analysis can be reused across the several blocks the optimizer
    enumerates over one core. *)

val col_outputs : t -> (Col.t * string) list
(** Outputs that are bare column references: column -> output name. *)

(** {2 Key sets as columns and strings}

    The sets behind {!keys}, uninterned: the view descriptor's readable
    fields and the reference filter of the tests. *)

val extended_output_cols : t -> Col.Set.t
(** Every column equivalent to some bare-column output, under the block's
    own classes (section 4.2.3). *)

val extended_grouping_cols : t -> Col.Set.t

val output_expr_templates : t -> Sset.t
(** Textual templates of non-column output expressions (section 4.2.7). *)

val grouping_expr_templates : t -> Sset.t

val residual_templates : t -> Sset.t

val range_constrained_classes : t -> Col.Set.t list
(** One class (as a column set) per constrained range (section 4.2.5). *)
