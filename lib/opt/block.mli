(** A query's join graph, and the SPJG subexpression blocks the
    view-matching rule is invoked on: per-table-subset blocks and the
    preaggregated inner blocks of section 3.3 (Example 4).

    A table subset is a bitmask over the query's FROM list, bit [i] for its
    [i]-th table in canonical order. Each WHERE conjunct is placed once, by
    the mask of the tables its columns reference, so which conjuncts a
    subset binds, which column equalities join two subsets and which
    conjuncts their join applies after its keys are each one mask test. *)

open Mv_base
module Spjg = Mv_relalg.Spjg

type t
(** The join graph of one query. *)

val of_query : Spjg.t -> t

val full : t -> int
(** The mask of every FROM table. *)

val names : t -> int -> string list
(** The tables of a mask, in canonical order. *)

val connected : t -> int -> bool
(** Are the subset's tables connected by column equalities? A single
    table is; the empty subset is not. *)

val keys : t -> int -> int -> (Col.t * Col.t) list
(** [keys g l r]: the column equalities between the disjoint subsets [l]
    and [r], in WHERE order, each oriented ([l] column, [r] column). *)

val post : t -> int -> int -> Pred.t list
(** [post g l r]: the conjuncts bound by [l ∪ r] but by neither side
    alone, other than the column equalities of {!keys}, in WHERE order:
    what a join of [l] and [r] applies after its keys. *)

val next : t -> joined:int -> int -> int
(** [next g ~joined rest]: the first table of the nonempty [rest] that
    shares a column equality with [joined], or else the first table of
    [rest], as a one-table mask. *)

val out_of_cols : Col.t list -> Spjg.out_item list

val sub_block : t -> int -> Spjg.t
(** The SPJ block of a table subset ({!spj_part} of the query on the full
    set). *)

val spj_part : Spjg.t -> Spjg.t
(** The query with its aggregation stripped, outputting every column the
    grouping and aggregates need. *)

type preagg = {
  block : Spjg.t;
  agg_binds : (string * Spjg.agg) list;
      (** inner output name -> the query aggregate it serves *)
}

val preagg_block : t -> int -> preagg option
(** Group the subset by local grouping expressions + crossing columns,
    producing count and partial sums; [None] when an aggregate argument
    crosses the boundary or the query is not aggregated. *)
