(** A time-series view over a {!Registry}: a fixed-capacity ring of
    periodic samples, each holding per-window counter deltas and
    interpolated histogram quantiles computed from cumulative
    bucket-array diffs (see {!Instrument.hsnap_diff}).

    Sampling is driven either manually ({!tick}) or by a dedicated
    domain ({!start}/{!stop}) so serving and maintenance loops get a
    timeline without instrumenting their hot paths. All state is behind
    one mutex; ticks from the sampler domain and a final tick from
    {!stop} never race. *)

type t

type hwindow = {
  w_count : int;
  w_sum : float;
  w_p50 : float;
  w_p90 : float;
  w_p99 : float;
}

type sample = {
  ts : float;  (** wall clock at the end of the window *)
  dur : float;  (** window length in seconds *)
  counters : (string * int) list;  (** per-window deltas, registry order *)
  histograms : (string * hwindow) list;
}

val create : Registry.t -> t
(** Ring of at most 240 samples ({!capacity}); older samples are
    overwritten. *)

val tick : t -> unit
(** Take one sample now: every counter's delta and every histogram's
    windowed stats since the previous tick (or since {!create}). *)

val samples : t -> sample list
(** Retained samples, oldest first. *)

val total : t -> int
(** Samples ever taken, including overwritten ones. *)

val capacity : t -> int

type sampler

val start : ?period:float -> t -> sampler
(** Spawn a dedicated domain ticking every [period] seconds
    (default 0.05). *)

val stop : sampler -> unit
(** Stop and join the sampler domain, then take one final tick so the
    tail window is captured. *)

val sample_json : sample -> Json.t

val to_json : t -> Json.t
(** [{"capacity": _, "windows": _, "retained": _, "samples": [...]}]. *)
