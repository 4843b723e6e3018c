(** Formatting of the paper's figures and in-text statistics from the
    sweep's cells ({!Harness.run}). Every printer states what the paper
    reported so the output reads as paper-vs-measured. The cells' JSON is
    {!Measure.to_json}, like every other bench section. *)

val find :
  Measure.t list -> nviews:int -> config:Harness.config -> Measure.t option
(** The grid cell for (nviews, config), when measured. *)

val figure2 : Measure.t list -> int list -> unit
(** Optimization time vs. number of views, four curves. *)

val figure3 : Measure.t list -> int list -> unit
(** Increase in optimization time vs. time inside the view-matching
    rule. *)

val figure4 : Measure.t list -> int list -> unit
(** Final plans using materialized views. *)

val stats_table : Measure.t list -> int list -> unit
(** The in-text statistics of section 5 (candidate fraction, pass rate,
    substitutes per invocation/query). *)

val level_table : Measure.t list -> int list -> unit
(** Per-filter-tree-level pruning breakdown (Alt&Filter only). *)

val write_json : string -> Mv_obs.Json.t -> unit
(** Write one JSON document (plus trailing newline). *)
