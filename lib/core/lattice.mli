(** The lattice index of section 4.1: keys are sets organized in a DAG by
    the subset partial order, supporting pruned subset/superset search and
    any monotone predicate traversal. Keys are interned bitsets
    ({!Mv_util.Bitset}).

    Persistent: {!update} returns a new lattice and never writes the one
    passed in, so any number of versions can be read at once. Each search
    deduplicates visited nodes in a byte string allocated for it and sized
    to the lattice. Searches share no state, so concurrent searches of one
    lattice from many domains are safe, as are reentrant searches (a
    predicate re-entering the lattice). *)

module Bitset = Mv_util.Bitset

type 'a t
(** A set of keys, each with one payload. *)

val empty : 'a t

val size : 'a t -> int
(** Number of keys. *)

val find : 'a t -> Bitset.t -> 'a option
(** The payload under exactly this key. *)

val update : 'a t -> Bitset.t -> ('a option -> 'a option) -> 'a t
(** [update t key f] is [t] with [key]'s payload replaced by
    [f (find t key)]; [None] removes the key. A new payload under a
    present key copies only the payload array and shares the DAG; a new
    or vanished key copies the DAG once, with node ids renumbered densely
    over the live keys. Returns [t] itself when [f] leaves an absent key
    absent. *)

val search :
  'a t -> dir:[ `Down | `Up ] -> pred:(Bitset.t -> bool) -> 'a list
(** Pruned traversal, returning the payloads of the keys that satisfy
    [pred]. [`Down] starts at the tops and follows subset pointers —
    correct when [pred] failing on a key implies it fails on every subset.
    [`Up] starts at the roots and follows superset pointers — correct when
    failure propagates to supersets. *)

val fold : (Bitset.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Every key with its payload. *)

type shape = {
  links : (Bitset.t * Bitset.t list * Bitset.t list) list;
      (** each key with its minimal strict supersets and its maximal
          strict subsets *)
  tops : Bitset.t list;  (** keys without supersets *)
  roots : Bitset.t list;  (** keys without subsets *)
}

val shape : 'a t -> shape
(** The DAG as plain data, for invariant checks. *)
