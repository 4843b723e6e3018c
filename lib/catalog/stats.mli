(** Table and column statistics for the cost model and the workload
    generator's cardinality targeting. *)

open Mv_base

type hist = {
  h_lo : Value.t;  (** inclusive lower bound of the first bucket *)
  h_bounds : Value.t array;
      (** strictly ascending inclusive upper bounds, one per bucket *)
  h_counts : int array;  (** rows per bucket; same length as [h_bounds] *)
}
(** Equi-depth histogram. Bucket [i] covers [(h_bounds.(i-1), h_bounds.(i)]]
    (bucket 0 starts at [h_lo], inclusive). A value never straddles a bucket
    boundary, so bounds are strictly increasing and every count is positive;
    counts sum to the number of non-null rows the histogram was built from. *)

type col_stats = {
  min_v : Value.t;
  max_v : Value.t;
  ndv : int;  (** number of distinct values *)
  hist : hist option;  (** equi-depth histogram, when built from data *)
  mcvs : (Value.t * int) list;
      (** most-common values with exact multiplicities. Non-empty only for
          low-NDV columns, where it is {e exhaustive}: every distinct value
          appears, so a miss means selectivity 0. Heaviest first. *)
}

type table_stats = {
  row_count : int;
  columns : (string * col_stats) list;
}

type t = (string * table_stats) list

val empty : t

val default_row_count : int
(** Row count assumed for tables with no statistics (1000). *)

val make_col :
  ?hist:hist ->
  ?mcvs:(Value.t * int) list ->
  min_v:Value.t ->
  max_v:Value.t ->
  ndv:int ->
  unit ->
  col_stats
(** Analytic column stats; histogram and MCVs default to absent, which
    keeps the uniform-interpolation selectivity path. *)

val build_column : ?buckets:int -> ?mcv_limit:int -> Value.t list -> col_stats
(** Column statistics from raw values, the one builder: the non-null
    values sorted by {!Value.order} (a numerically equal [Int] before a
    [Float], so equal multisets give equal statistics whatever their
    order), then min/max/ndv ([Value.order]'s distinct values, so an [Int]
    and the equal [Float] count once), an equi-depth histogram with at
    most [buckets] buckets (default 16; omitted for empty or constant
    columns), and an exhaustive MCV list when the column has at most
    [mcv_limit] (default 32) distinct values. The histogram is cut by
    binary search, O(buckets · log n), after the O(n log n) sort. No
    non-null value yields [ndv = 0] with [Null] bounds. *)

val search :
  cmp:(Value.t -> Value.t -> int) ->
  Value.t array ->
  int ->
  int ->
  Value.t ->
  above:bool ->
  int
(** [search ~cmp arr lo hi v ~above]: by binary search, the first of
    slots [lo, hi) of [arr], ascending under [cmp], whose value is not
    below [v] under [cmp] ([~above:true]: is above [v]); [hi] when there
    is none. *)

val table : t -> string -> table_stats option

val row_count : t -> string -> int
(** Row count of a table, or {!default_row_count} when the table has no
    statistics. The fallback is an observable event: each firing bumps the
    [cost.stats.missing] counter on [Mv_obs.Registry.global], so silent
    cost-model blind spots show up in bench/serving snapshots. *)

val col_stats : t -> Col.t -> col_stats option

val hist_total : hist -> int
(** Number of rows the histogram covers (sum of bucket counts). *)

val range_selectivity : t -> Col.t -> Pred.cmp -> Value.t -> float
(** Selectivity of [col op const]. Consults the MCV list (exact for
    equality on low-NDV columns) and the equi-depth histogram
    (bucket-sum plus within-bucket interpolation for ranges) when present,
    and falls back to the original uniform-interpolation estimate — and
    ultimately to textbook constant guesses — when statistics are absent.
    Clamped to [[0.0001, 1.0]]. *)

val ndv : t -> Col.t -> int
