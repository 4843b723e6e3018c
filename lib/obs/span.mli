(** Hierarchical spans: a per-query trace of the whole optimize pipeline.

    Spans are the one tracing path (the [rule.*] instruments are the
    aggregate view). A span collector is created for ONE traced invocation — [mvopt explain
    --trace-out] or a test — and records a tree: every span has a parent,
    a start timestamp and a duration, plus typed attributes attached as the
    traced code learns things (candidate counts, the [Reject.t] that killed
    a view, cache hit/miss). The tree exports losslessly to Chrome/Perfetto
    [trace_event] JSON ({!to_trace_event_json}) and renders as an indented
    text tree ({!render}).

    Timestamps are monotone within a collector: each recorded time is
    clamped to be no earlier than the previously recorded one, so a span
    never appears to start before its parent even if the wall clock steps.

    The pipeline threads a {!scope} [option]; [None] (the default
    everywhere) short-circuits every helper to a single pattern match, so
    untraced runs pay nothing. *)

type attr = Str of string | Int of int | Float of float | Bool of bool

type kind = Complete  (** has a duration *) | Instant  (** a point event *)

type span = {
  id : int;  (** creation order, from 1; 0 never names a span *)
  parent : int;  (** 0 = a root span *)
  name : string;
  kind : kind;
  ts : float;  (** seconds since the collector was created, monotone *)
  mutable dur : float;  (** seconds; negative while still open *)
  mutable attrs : (string * attr) list;
}

type t

val create : unit -> t

val start : t -> ?parent:int -> string -> int
(** Open a span; returns its id. *)

val add_attrs : t -> int -> (string * attr) list -> unit
(** Append attributes to an open or finished span. Unknown ids are
    ignored (a span sink never throws into the traced pipeline). *)

val finish : t -> int -> unit
(** Close a span, fixing its duration. Idempotent: finishing twice keeps
    the first duration. *)

val instant : t -> ?parent:int -> string -> (string * attr) list -> unit
(** A zero-duration point event (cache hit, pruning note). *)

val spans : t -> span list
(** All spans in creation (= id) order, open ones included. *)

(** {1 Scoped threading}

    The pipeline functions take [?spans:scope] and pass a child scope
    down; [wrap] is the only way scopes nest, so parent ids always form a
    tree. *)

type scope = { col : t; parent : int }

val root : t -> scope
(** The top-level scope of a collector (spans opened under it are
    roots). *)

val wrap :
  scope option ->
  ?attrs:(unit -> (string * attr) list) ->
  string ->
  (scope option -> 'a) ->
  'a
(** [wrap sc name f] runs [f] inside a new span under [sc]. With [None]
    it is just [f None] — no clock reads, no allocation. [attrs] is a
    thunk so disabled runs never build the list. Re-raises (closing the
    span) if [f] does. *)

val note : scope option -> string -> (unit -> (string * attr) list) -> unit
(** An instant event under the scope; no-op on [None]. *)

val annotate : scope option -> (unit -> (string * attr) list) -> unit
(** Append attributes to the scope's own span (the one [wrap] opened);
    no-op on [None] or on a root scope. *)

(** {1 Export} *)

val to_trace_event_json : ?process_name:string -> t -> Json.t
(** The Chrome/Perfetto [trace_event] document:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}]. Complete spans are
    ["ph": "X"] events with microsecond [ts]/[dur]; instants are
    ["ph": "i"]; one ["ph": "M"] metadata event names the process. Span
    ids and parent ids travel in each event's [args], so the exact tree
    survives the flat encoding. Spans still open at export time get
    [dur] 0 and an [unfinished] arg. *)

val render : t -> string
(** Indented text tree, children in creation order: name, duration in ms,
    attributes as [k=v]. *)
