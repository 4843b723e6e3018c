(** The per-view health ledger: runtime accounts of what each registered
    view cost and earned, plus the observed query workload.

    Accounts are keyed by view {e name}, the stable identity that
    survives add/drop churn (a view dropped and defined again gets a new
    descriptor; its name stays). Counts are atomic, float accumulators
    sit behind a per-account mutex — safe to record from every serving
    domain concurrently, with no lost updates.

    Attribution points (DESIGN.md §14): candidate/matched in the
    view-matching rule ({!Registry.find_substitutes}), chosen and
    estimated benefit at the optimizer's win site, staleness flips in
    {!Registry.mark_stale}, maintenance wall time in [Mv_engine.Ivm],
    cache hits in the serving front end. *)

type t

val create : unit -> t

(** {2 Recording} *)

val record_candidate : t -> string -> unit

val record_matched : t -> string -> unit

val record_chosen : t -> ?benefit:float -> string -> unit
(** The view appeared in a final plan; [benefit] is the estimated cost
    saved at this win site (direct minus substitute cost), accumulated
    when positive. *)

val record_cache_hit : t -> string -> unit

val record_stale : t -> string -> unit

val record_maintenance : t -> wall:float -> string -> unit

val record_query : t -> Mv_relalg.Spjg.t -> unit
(** Count one observed query (keyed by its SQL rendering) — the trace
    the ledger-driven advisor re-prices against. *)

(** {2 Reading} *)

type row = {
  r_view : string;
  r_candidate : int;
  r_matched : int;
  r_chosen : int;
  r_cache_hits : int;
  r_stale_flips : int;
  r_maint_events : int;
  r_benefit : float;
  r_maint_s : float;
}

val net : row -> float
(** Ranking heuristic: estimated cost saved minus maintenance wall
    seconds. Units differ, so only the ordering is meaningful. *)

val dead : row -> bool
(** Never matched. *)

val find : t -> string -> row option

val rows : t -> row list
(** All accounts, sorted by {!net} descending (name-tiebroken). *)

val queries_total : t -> int

val query_frequencies : t -> (Mv_relalg.Spjg.t * int) list
(** Distinct observed queries with occurrence counts, most frequent
    first. *)

val reset : t -> unit

(** {2 Surfaces} *)

val row_json : row -> Mv_obs.Json.t

val to_json : t -> Mv_obs.Json.t
(** [{"views": _, "queries_observed": _, "distinct_queries": _,
    "dead": [...], "accounts": [...]}]. *)

val families : ?prefix:string -> t -> Mv_obs.Export.family list
(** One [view]-labelled OpenMetrics family per ledger column
    (default prefix ["mv_view_"]); empty when no accounts. *)

val render : ?limit:int -> t -> string
(** The [mvopt top] table: one line per view, sorted by {!net}, dead
    views flagged. [limit] > 0 keeps only the first rows. *)
