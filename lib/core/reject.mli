(** Why a view was rejected for a given query expression. *)

type detail = unit -> string
(** Renders the reject's detail on demand; the matcher never builds the
    text of a reject nobody reads. *)

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

val detail : string -> detail
(** A fixed detail text. *)

val to_string : t -> string

val label : t -> string
(** Stable kebab-case aggregation key, one per constructor (detail
    payloads dropped): ["missing-tables"], ["extra-tables"],
    ["equijoin-subsumption"], ["range-subsumption"],
    ["residual-subsumption"], ["compensation-not-computable"],
    ["output-not-computable"], ["grouping-incompatible"],
    ["view-more-aggregated"]. *)

val pp : Format.formatter -> t -> unit
