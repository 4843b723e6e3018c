(** Rendering surfaces for the obs layer.

    The OpenMetrics renderer consumes a neutral {!family} list so layers
    above [mv_obs] (e.g. the per-view health ledger in [mv_core]) can
    contribute metric families without a dependency cycle, and
    {!registry_json} is the one canonical JSON schema every registry-dump
    code path shares. *)

type labels = (string * string) list

type summary = {
  s_count : int;
  s_sum : float;
  s_quantiles : (float * float) list;  (** (q, value) pairs *)
}

type family =
  | Counter of { name : string; help : string; samples : (labels * float) list }
  | Gauge of { name : string; help : string; samples : (labels * float) list }
  | Summary of {
      name : string;
      help : string;
      samples : (labels * summary) list;
    }

val render : family list -> string
(** OpenMetrics text exposition: one [# TYPE] block per family (counters
    get the [_total] suffix, summaries emit [quantile]-labelled samples
    plus [_sum]/[_count]), terminated by [# EOF]. Metric and label names
    are sanitized to the OpenMetrics charset; non-finite values render as
    [NaN]/[+Inf]/[-Inf]. *)

val families_of_registry : ?prefix:string -> Registry.t -> family list
(** Counters map to counter families, histograms to summaries with
    p50/p90/p95/p99. *)

val families_of_timeline : ?prefix:string -> Timeline.t -> family list
(** Each retained window becomes a [window]-labelled gauge sample:
    [<counter>_window_delta], [<histogram>_window_count/_p50/_p99], plus
    a shared [window_dur_seconds] family. Empty when no samples. *)

val registry_json :
  ?timeline:Timeline.t -> ?extra:(string * Json.t) list -> Registry.t -> Json.t
(** The canonical dump schema: [{"metrics": <Registry.to_json>}], plus a
    ["timeline"] section when given one, plus any [extra] top-level
    sections (e.g. a health ledger). *)
