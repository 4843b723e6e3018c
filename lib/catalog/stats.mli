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

type column
(** One column's statistics in a {!table_stats} entry: built, or deferred
    until the first {!col_stats} read builds and keeps them. A column also
    remembers whether {!col_stats} has read it, the demand a rebuild
    follows ({!rebuild}). Compare entries with {!equal_table}: a deferred
    column holds a function, on which structural equality raises. *)

type table_stats = {
  row_count : int;
  columns : (string * column) list;
}

type t
(** Every entry, keyed by table (or view) name in a persistent map: a
    read compares [O(log n)] names with [String.compare], however many
    views have an entry. *)

val empty : t

val of_list : (string * table_stats) list -> t
(** The entries of a list. When a name is bound twice, its first binding
    wins, as [List.assoc] would find it. *)

val add : string -> table_stats -> t -> t
(** [add name ts t]: [t] with [name]'s entry replaced by [ts] (or added).
    Every other entry is physically the one [t] holds. *)

val bindings : t -> (string * table_stats) list
(** Every entry, in ascending name order (for checks). *)

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
    values copied into one array and sorted in place by {!Value.order} (a
    numerically equal [Int] before a [Float], so equal multisets give
    equal statistics whatever their order), then min/max/ndv
    ([Value.order]'s distinct values, so an [Int] and the equal [Float]
    count once), an equi-depth histogram with at most [buckets] buckets
    (default 16; omitted for empty or constant columns), and an exhaustive
    MCV list when the column has at most [mcv_limit] (default 32) distinct
    values. The histogram is cut by binary search, O(buckets · log n),
    after the O(n log n) sort. No non-null value yields [ndv = 0] with
    [Null] bounds. *)

val built : col_stats -> column
(** A built column that nothing has read yet. *)

val rebuild :
  table_stats option ->
  row_count:int ->
  (string * (unit -> col_stats)) list ->
  table_stats
(** [rebuild prev ~row_count builders]: an entry rebuilt on the demand its
    previous entry [prev] showed. Each column [prev] holds under the same
    name and {!col_stats} has read is built now by its builder and counts
    as read; every other column keeps its builder, deferred until its
    first {!col_stats} read. *)

val is_built : column -> bool

val was_read : column -> bool
(** Whether {!col_stats} has read the column (or the column it was rebuilt
    from, {!rebuild}). *)

val force : column -> col_stats
(** The column's statistics for a check: a deferred column runs its
    builder, but neither keeps the result nor counts as read, so the cell
    is left as it was. *)

val equal_table : table_stats -> table_stats -> bool
(** Equal row counts, and the same column names in the same order with
    structurally equal statistics (an [Int] never equals a [Float]), each
    column {!force}d. *)

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
(** A column's statistics, the one read the cost model makes: marks the
    column read (only when it was not yet) and builds a deferred column,
    keeping the result and bumping [stats.columns.built_on_read] on
    [Mv_obs.Registry.global]. Two domains may build the same deferred
    column at once; each gets the builder's result and neither blocks. *)

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
