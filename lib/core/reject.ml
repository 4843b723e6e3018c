(** Why a view was rejected for a given query expression. Carried through
    the pipeline for diagnostics, the CLI's EXPLAIN output and tests.

    The detail of a reject is a function that renders it: the matcher
    rejects most candidates it tries, and most rejects are only counted,
    so the text is built only when {!to_string}, a span or an explanation
    asks for it. *)

type detail = unit -> string

type t =
  | Missing_tables
  | Extra_tables_not_eliminable
  | Equijoin_subsumption_failed
  | Range_subsumption_failed of detail
  | Residual_subsumption_failed of detail
  | Compensation_not_computable of detail
  | Output_not_computable of detail
  | Grouping_incompatible of detail
  | View_more_aggregated

let detail s () = s

let to_string = function
  | Missing_tables -> "view lacks tables required by the query"
  | Extra_tables_not_eliminable ->
      "extra view tables cannot be removed by cardinality-preserving joins"
  | Equijoin_subsumption_failed -> "equijoin subsumption test failed"
  | Range_subsumption_failed s -> "range subsumption test failed: " ^ s ()
  | Residual_subsumption_failed s -> "residual subsumption test failed: " ^ s ()
  | Compensation_not_computable s ->
      "compensating predicate not computable from view output: " ^ s ()
  | Output_not_computable s ->
      "query output not computable from view output: " ^ s ()
  | Grouping_incompatible s -> "grouping lists incompatible: " ^ s ()
  | View_more_aggregated -> "view is more aggregated than the query"

(* Stable machine-readable labels: one per constructor, detail payloads
   dropped. Used as aggregation keys (why-not tables, span attributes), so
   renaming one is a reporting-format change. *)
let label = function
  | Missing_tables -> "missing-tables"
  | Extra_tables_not_eliminable -> "extra-tables"
  | Equijoin_subsumption_failed -> "equijoin-subsumption"
  | Range_subsumption_failed _ -> "range-subsumption"
  | Residual_subsumption_failed _ -> "residual-subsumption"
  | Compensation_not_computable _ -> "compensation-not-computable"
  | Output_not_computable _ -> "output-not-computable"
  | Grouping_incompatible _ -> "grouping-incompatible"
  | View_more_aggregated -> "view-more-aggregated"

let pp ppf t = Fmt.string ppf (to_string t)
