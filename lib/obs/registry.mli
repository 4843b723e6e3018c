(** A named-instrument registry. Instruments are created on first use and
    identified by dotted names ([component.metric] — see DESIGN.md's
    Observability section for the naming scheme). A registry is either the
    process-wide {!global} one or a scoped instance owned by a subsystem
    (each [Mv_core.Registry] carries its own, so concurrent sweeps don't
    bleed counts into each other).

    Domain-safe: instrument creation is serialized by a registry mutex and
    each instrument is itself safe for concurrent updates (atomic counters,
    mutexed histograms — see {!Instrument}), so one registry can be
    shared by all worker domains of a parallel run and snapshots taken
    while they record remain well-formed. *)

type t

exception Kind_mismatch of string
(** Raised when a name is requested as one instrument kind after having
    been created as another. *)

val create : unit -> t
(** A fresh scoped registry. *)

val global : t
(** The process-wide registry. *)

val counter : t -> string -> Instrument.counter

val histogram : t -> string -> Instrument.histogram

val resolver : (t -> string -> 'a) -> t -> string -> unit -> 'a
(** [resolver counter t name] returns a function that creates or finds the
    instrument on its first call and returns that same handle, without a
    lookup or the registry lock, on every later call: for hot paths that
    bump a fixed instrument. Creation stays on first use. *)

type instrument =
  | Counter of Instrument.counter
  | Histogram of Instrument.histogram

val find : t -> string -> instrument option

val names : t -> string list
(** Sorted. *)

val counter_value : t -> string -> int
(** 0 when the counter does not exist — convenient for reading metrics
    that are only recorded on some code paths. *)

val reset : t -> unit
(** Zero every instrument; instruments stay registered. *)

val to_json : t -> Json.t
(** Snapshot: [{"counters": ..., "histograms": ...}].
    Instruments appear in sorted name order. *)

val render : t -> string
(** Human-readable table of every instrument. *)
