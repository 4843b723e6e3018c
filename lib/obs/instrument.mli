(** The two instrument kinds.

    Counters are monotone event counts, and histograms keep streaming
    moments plus power-of-two buckets for cheap percentile estimates; a
    timed activity is a histogram of its wall-clock durations
    ({!time_hist}). Neither allocates on the update path.

    Both kinds are domain-safe: counters are atomic ints (lock-free, no
    lost updates), histograms serialize their multi-field updates and reads
    through a per-instrument mutex, so a snapshot taken while other domains
    record is internally consistent and never sees negative or
    half-applied values. *)

type counter

val counter : unit -> counter

val incr : counter -> unit

val add : counter -> int -> unit

val value : counter -> int

val reset_counter : counter -> unit

type histogram

val histogram : unit -> histogram

val observe : histogram -> float -> unit

val count : histogram -> int

val sum : histogram -> float

val mean : histogram -> float
(** 0 when empty. *)

val min_value : histogram -> float
(** +inf when empty (serialized as null). *)

val max_value : histogram -> float
(** -inf when empty (serialized as null). *)

val quantile : histogram -> float -> float
(** Estimate of the q-quantile observation: locate the power-of-two
    bucket holding it, then interpolate linearly within the bucket from
    the rank's position among the bucket's observations, clamped to the
    exact observed min/max. 0 when empty. Still bucket-limited — a
    reporting estimate, not exact statistics — but far tighter than the
    bucket upper bound for mid-bucket ranks. *)

val reset_histogram : histogram -> unit

(** {2 Bucket geometry}

    Histograms bucket by power of two: bucket [i] covers
    [(2^(i-64-1), 2^(i-64)]], with bucket 0 absorbing everything [<= 0].
    Exposed so merge/windowing tests can reason about resolution. *)

val buckets : int
(** Number of buckets (128). *)

val bucket_of : float -> int

val bucket_lower : int -> float
(** Lower bound of bucket [i]; 0 for bucket 0. *)

val bucket_upper : int -> float

(** {2 Merging}

    Fold several per-domain histograms into one fresh aggregate. Each
    source is read under its own lock, so merging while other domains
    record sees every source internally consistent. Merging is exactly
    equivalent to having observed the union of the sources' samples on
    one instrument, except that a histogram quantile of the merge may
    differ from the union's by at most the one-bucket resolution. *)

val merge_histograms : histogram list -> histogram

(** {2 Histogram snapshots}

    Immutable copies of a histogram's cumulative state, cheap to diff:
    the timeline sampler snapshots each tick and reports per-window
    (delta) quantiles instead of cumulative ones. *)

type hsnap = {
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_buckets : int array;
}

val hsnap_empty : hsnap

val snapshot : histogram -> hsnap

val hsnap_diff : prev:hsnap -> hsnap -> hsnap
(** The window between two cumulative snapshots of the same histogram.
    Counts and sums subtract (clamped at zero); the window min/max are
    approximated by the bounds of the first/last bucket with traffic in
    the window — exact min/max of only the window is unrecoverable from
    cumulative state. *)

val hsnap_quantile : hsnap -> float -> float
(** Interpolated quantile of a snapshot, clamped to its min/max; same
    estimator as {!quantile}. 0 when empty. *)

val time_hist : histogram -> (unit -> 'a) -> 'a
(** Run the thunk, observing its wall-clock duration (seconds) as one
    histogram sample. Re-raises, still recording, if the thunk does. *)

val now_wall : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]). *)
