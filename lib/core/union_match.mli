(** Finding union substitutes: views whose only defect is range
    subsumption on a single class, sliced along that class and greedily
    composed into a cover of the query's range, of at most four parts.
    SPJ queries only. *)

val find :
  ?relaxed_nulls:bool ->
  ?backjoins:bool ->
  Mv_relalg.Analysis.t ->
  View.t list ->
  Union_substitute.t option
