(** A bounded LRU map: hash table plus intrusive recency list. Capacity is
    a hard bound — inserting into a full cache evicts the least recently
    used binding and returns it, so the caller can count evictions.

    Not synchronized: callers that share a cache across OCaml domains must
    wrap operations in their own lock (the serving front's plan table sits
    behind the front's one mutex — see [Mv_experiments.Serve]). Keys are compared with
    polymorphic equality and hashed with [Hashtbl.hash], like the stdlib's
    polymorphic hash tables. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** @raise Invalid_argument when [capacity < 1]. *)

val capacity : ('k, 'v) t -> int

val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Touches the binding: a hit becomes the most recently used entry. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** [find] without the recency update (diagnostics, tests). *)

val mem : ('k, 'v) t -> 'k -> bool
(** No recency update. *)

val set : ('k, 'v) t -> 'k -> 'v -> ('k * 'v) option
(** Insert or replace, making the binding most recently used. Returns the
    evicted least-recently-used binding when the insert pushed the cache
    over capacity ([None] on replace or when there was room). *)

val remove : ('k, 'v) t -> 'k -> bool
(** [true] when a binding was present and removed. *)

val clear : ('k, 'v) t -> unit

val fold : ('k -> 'v -> 'a -> 'a) -> ('k, 'v) t -> 'a -> 'a
(** Most recently used first. *)
