(** The foreign-key join graph of section 3.2 and the hub computation of
    section 4.2.2. An edge Ti -> Tj exists when the block equates (via its
    equivalence classes) a non-null foreign key of Ti with a unique key of
    Tj: such a join is cardinality preserving. *)

open Mv_base
module Sset = Mv_util.Sset

type edge = {
  src : string;
  dst : string;
  fk : Mv_catalog.Foreign_key.t;
  join_ids : (int * int) list;  (** (fk column, key column) id pairs *)
  nullable : Col.t list;
      (** FK columns declared nullable: the edge holds only under the
          relaxation, given a null-rejecting predicate on each *)
}

type mode = [ `Strict | `Optimistic | `Query of Mv_relalg.Analysis.t ]
(** Handling of nullable FK columns: [`Strict] requires not-null;
    [`Query q] accepts them when [q] carries a null-rejecting predicate on
    the column (section 3.2's relaxation); [`Optimistic] assumes such a
    predicate will exist — used for hub computation under the relaxation,
    keeping the hub a lower bound on what matching can eliminate. *)

val null_rejecting_on : Mv_relalg.Analysis.t -> Col.t -> bool

val equated_edges : Mv_relalg.Analysis.t -> edge list
(** Every FK/unique-key edge the block's classes equate, nullable FK
    columns included: the mode-independent part of {!edges}. *)

val admits : mode:mode -> edge -> bool
(** Does the edge hold in this mode? *)

val edges : ?mode:mode -> Mv_relalg.Analysis.t -> edge list
(** [equated_edges] filtered by {!admits}. *)

val eliminate :
  eliminable:Sset.t ->
  edge list ->
  string list * edge list * edge list
(** Repeatedly delete any eliminable node with no outgoing edges and
    exactly one incoming edge. Returns (eliminated tables in order, edges
    used, surviving edges). *)

val eliminate_extras : extras:Sset.t -> edge list -> edge list option
(** [Some used_edges] iff every extra table can be eliminated. *)

val hub : ?mode:mode -> Mv_relalg.Analysis.t -> Sset.t
(** Tables remaining after maximal elimination — except that tables
    carrying a range/residual predicate on a trivial-class column are
    pinned (the refinement of section 4.2.2). *)
