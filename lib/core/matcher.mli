(** The complete view-matching pipeline of section 3: given an analyzed
    query expression and one view, either construct a substitute or explain
    the rejection. *)

val match_view :
  ?relaxed_nulls:bool ->
  ?backjoins:bool ->
  ?spans:Mv_obs.Span.scope ->
  query:Mv_relalg.Analysis.t ->
  View.t ->
  (Substitute.t, Reject.t) result
(** With [spans], records ["spj-tests"] and ["construct"] child spans and
    annotates the enclosing span with the outcome ([result], plus
    [reject]/[detail] from the {!Reject.t} on failure). *)

val match_spjg :
  ?relaxed_nulls:bool ->
  ?backjoins:bool ->
  Mv_catalog.Schema.t ->
  query:Mv_relalg.Spjg.t ->
  View.t ->
  (Substitute.t, Reject.t) result
(** Convenience wrapper that analyzes the query block first. *)
