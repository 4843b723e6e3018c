(** One measurement record for every bench section: the inputs it ran
    with, the numbers it produced, its latency percentiles, the boolean
    verdicts that gate it, and named lists of sub-measures (cells, nodes,
    windows). One JSON encoder, one table renderer and one failure
    collector serve every section, so a verdict drives the bench's exit
    code the same way wherever it comes from.

    Keys may be dotted: ["cache.plan_hits"] and ["churn.consistent"] land
    in one ["cache"] / ["churn"] object of the JSON, merged with every
    other key under the same head; a percentile block or sub-measure list
    may sit under a dotted key too (["phases.total"],
    ["plans.default_plan.levels"]). The unit stays in the key suffix
    ([wall_s], [est_rows], [rate_qps]). *)

type pct = { p50_s : float; p90_s : float; p99_s : float }
(** Interpolated quantiles of per-event seconds. *)

type t = {
  section : string;  (** the section's name, also its table title *)
  params : (string * Mv_obs.Json.t) list;  (** what the run was given *)
  metrics : (string * Mv_obs.Json.t) list;
      (** what it measured; object-valued metrics (timeline and health
          exports) go to the JSON only *)
  pcts : (string * pct) list;
  verdicts : (string * bool) list;  (** [true] = the check holds *)
  subs : (string * t list) list;
}

val make :
  ?params:(string * Mv_obs.Json.t) list ->
  ?metrics:(string * Mv_obs.Json.t) list ->
  ?pcts:(string * pct) list ->
  ?verdicts:(string * bool) list ->
  ?subs:(string * t list) list ->
  string ->
  t

val pct_of : Mv_obs.Instrument.histogram -> pct

val int : t -> string -> int
(** An integer param or metric. Raises [Not_found] when absent or not an
    integer. *)

val float : t -> string -> float
(** A float param or metric, as {!int}. *)

val string : t -> string -> string
(** A string param or metric, as {!int}. *)

val verdict : t -> string -> bool
(** Raises [Not_found] when absent. *)

val to_json : t -> Mv_obs.Json.t
(** Params, metrics, percentile blocks ([{"p50_s", "p90_s", "p99_s"}]),
    verdicts and sub-measure lists as one object, dotted keys nested. An
    object-valued entry (a percentile block, an exported object) merges
    with the dotted keys under the same key: ["phases.total.calls"] and
    the ["phases.total"] block make one object.
    @raise Invalid_argument naming the key when two entries would land on
    one key otherwise (["a"] and ["a.b"], or ["x"] twice). *)

val failures : t -> string list
(** Every false verdict, sub-measures included, as its JSON path relative
    to {!to_json} (["equivalent"], ["cells.2.stats_fresh"]). *)

val render : t -> string
(** The section as text: a title line with the params, one line per
    metric, percentile and verdict, then one table per sub-measure list
    (columns taken from its first element), each followed by the lists
    nested in its elements, titled by path and the element's params. *)
