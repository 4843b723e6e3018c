(** Formatting of the paper's figures and in-text statistics from sweep
    measurements, plus their section of the machine-readable BENCH_*.json
    trajectory (every other bench section is a {!Measure.t}).
    Every printer states what the paper reported so the output reads as
    paper-vs-measured. *)

val find :
  Harness.measurement list ->
  nviews:int ->
  config:Harness.config ->
  Harness.measurement option
(** The grid cell for (nviews, config), when measured. *)

val configs_ordered : Harness.config list
(** The four configurations in the paper's column order (Alt&Filter
    first). *)

val figure2 : Harness.measurement list -> int list -> unit
(** Optimization time vs. number of views, four curves. *)

val figure3 : Harness.measurement list -> int list -> unit
(** Increase in optimization time vs. time inside the view-matching
    rule. *)

val figure4 : Harness.measurement list -> int list -> unit
(** Final plans using materialized views. *)

val stats_table : Harness.measurement list -> int list -> unit
(** The in-text statistics of section 5 (candidate fraction, pass rate,
    substitutes per invocation/query). *)

val level_table : Harness.measurement list -> int list -> unit
(** Per-filter-tree-level pruning breakdown (Alt&Filter only). *)

val level_flow_json : Harness.level_flow list -> Mv_obs.Json.t
(** The per-level candidate flow as the ["levels"] list (also used by the
    filter-tree bench for its own sections). *)

val measurements_json : Harness.measurement list -> Mv_obs.Json.t
(** The ["measurements"] section of the trajectory, one object per grid
    cell. *)

val write_json : string -> Mv_obs.Json.t -> unit
(** Write one JSON document (plus trailing newline). *)
