(** The foreign-key join graph of section 3.2 and the hub computation of
    section 4.2.2.

    Nodes are the tables of an SPJG block. There is an edge Ti -> Tj when
    the block's predicates (directly or transitively, via equivalence
    classes) equate a foreign key of Ti with a unique key of Tj and all five
    requirements hold: equijoin, all key columns, non-null, foreign key,
    unique key. Such a join is cardinality preserving: every Ti row joins
    exactly one Tj row.

    The non-null requirement can be relaxed (last paragraph of 3.2): a
    nullable FK column is acceptable when the *query* contains a
    null-rejecting predicate on that column. [`Query q] edge mode performs
    that exact check; [`Optimistic] assumes a null-rejecting predicate will
    be present (used for hub computation when the relaxation is enabled, so
    the hub stays a lower bound on what matching can eliminate);
    [`Strict] requires the declared not-null constraint. *)

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

(* Does the analyzed block [q] contain a null-rejecting predicate on column
   [c] other than an equijoin? Range predicates, LIKE and comparisons reject
   NULL; IS NULL does not. Column-equality predicates with another column
   also reject NULL but the paper excludes the equijoin itself, so we only
   look at ranges and residual atoms. *)
let null_rejecting_on (q : Mv_relalg.Analysis.t) (c : Col.t) =
  let in_ranges =
    List.exists
      (fun (rc, _, _) -> Col.equal rc c)
      q.Mv_relalg.Analysis.classified.Mv_relalg.Classify.ranges
    || List.exists
         (fun (rc, _) -> Col.equal rc c)
         q.Mv_relalg.Analysis.classified.Mv_relalg.Classify.disj_ranges
  in
  let atom_rejects (p : Pred.t) =
    match p with
    | Pred.Cmp (_, l, r) ->
        List.exists (Col.equal c) (Expr.columns l @ Expr.columns r)
    | Pred.Like (e, _) -> List.exists (Col.equal c) (Expr.columns e)
    | Pred.Not (Pred.Like (e, _)) -> List.exists (Col.equal c) (Expr.columns e)
    | Pred.Not _ | Pred.Is_null _ | Pred.And _ | Pred.Or _ | Pred.Bool _ ->
        false
  in
  let in_residuals =
    List.exists
      (fun (r : Mv_relalg.Residual.t) -> atom_rejects r.Mv_relalg.Residual.pred)
      q.Mv_relalg.Analysis.residuals
  in
  in_ranges || in_residuals

let admits ~(mode : mode) e =
  e.nullable = []
  ||
  match mode with
  | `Strict -> false
  | `Optimistic -> true
  | `Query q -> List.for_all (null_rejecting_on q) e.nullable

(* Every FK/unique-key edge the block's classes equate, whatever the
   nullability of its FK columns — the mode-independent part of {!edges},
   which a view precomputes once. *)
let equated_edges (a : Mv_relalg.Analysis.t) : edge list =
  let schema = a.Mv_relalg.Analysis.schema in
  let tables = a.Mv_relalg.Analysis.spjg.Mv_relalg.Spjg.tables in
  let equiv = a.Mv_relalg.Analysis.equiv in
  let edge_for src fk =
    let dst = fk.Mv_catalog.Foreign_key.to_tbl in
    if src = dst || not (List.mem dst tables) then None
    else
      let pairs =
        List.map2
          (fun f c -> (Col.make src f, Col.make dst c))
          fk.Mv_catalog.Foreign_key.from_cols fk.Mv_catalog.Foreign_key.to_cols
      in
      let join_ids =
        List.map
          (fun (f, c) -> (Mv_relalg.Intern.col f, Mv_relalg.Intern.col c))
          pairs
      in
      (* all FK/key column pairs equated by the block's predicates,
         transitively via equivalence classes *)
      if List.for_all (fun (f, c) -> Mv_relalg.Equiv.same_id equiv f c) join_ids
      then
        Some
          {
            src;
            dst;
            fk;
            join_ids;
            nullable =
              List.filter_map
                (fun (f, _) ->
                  if Mv_catalog.Schema.column_nullable schema f then Some f
                  else None)
                pairs;
          }
      else None
  in
  List.concat_map
    (fun src ->
      List.filter_map (edge_for src) (Mv_catalog.Schema.fks_from schema src))
    tables

(* All cardinality-preserving edges of the block [a]. *)
let edges ?(mode = `Strict) (a : Mv_relalg.Analysis.t) : edge list =
  List.filter (admits ~mode) (equated_edges a)

(* Repeatedly delete any node in [eliminable] that has no outgoing edges
   and exactly one incoming edge (deleting the node deletes its incoming
   edge). Returns the eliminated tables (in deletion order) and the edges
   used, plus the surviving edges. *)
let eliminate ~(eliminable : Sset.t) (all_edges : edge list) =
  let rec go eliminated used remaining =
    let deletable t =
      (not (List.exists (fun e -> e.src = t) remaining))
      &&
      let rec exactly_one seen = function
        | [] -> seen
        | e :: rest ->
            if e.dst <> t then exactly_one seen rest
            else (not seen) && exactly_one true rest
      in
      exactly_one false remaining
    in
    (* the first deletable table in name order *)
    match Seq.find deletable (Sset.to_seq eliminable) with
    | None -> (List.rev eliminated, List.rev used, remaining)
    | Some t ->
        let incoming = List.find (fun e -> e.dst = t) remaining in
        go (t :: eliminated) (incoming :: used)
          (List.filter (fun e -> e.dst <> t) remaining)
  in
  go [] [] all_edges

(* Can all tables in [extras] be removed through cardinality-preserving
   joins? Returns the used edges on success (section 3.2). *)
let eliminate_extras ~(extras : Sset.t) (all_edges : edge list) :
    edge list option =
  let eliminated, used, _ = eliminate ~eliminable:extras all_edges in
  if Sset.equal (Sset.of_list eliminated) extras then Some used else None

(* The hub (section 4.2.2): run elimination until no more tables can be
   removed, but keep any table carrying a range or residual predicate on a
   column in a trivial equivalence class — such a table must appear in any
   query the view can answer, so leaving it in the hub only sharpens the
   filter. *)
let hub ?(mode = `Strict) (a : Mv_relalg.Analysis.t) : Sset.t =
  let tables = Sset.of_list a.Mv_relalg.Analysis.spjg.Mv_relalg.Spjg.tables in
  let equiv = a.Mv_relalg.Analysis.equiv in
  let trivial c = Mv_relalg.Equiv.is_trivial equiv (Mv_relalg.Intern.col c) in
  let predicate_cols =
    List.map
      (fun (c, _, _) -> c)
      a.Mv_relalg.Analysis.classified.Mv_relalg.Classify.ranges
    @ List.concat_map
        (fun (r : Mv_relalg.Residual.t) -> r.Mv_relalg.Residual.cols)
        a.Mv_relalg.Analysis.residuals
  in
  let pinned =
    List.fold_left
      (fun acc c ->
        if trivial c then Sset.add c.Col.tbl acc else acc)
      Sset.empty predicate_cols
  in
  let eliminable = Sset.diff tables pinned in
  let eliminated, _, _ = eliminate ~eliminable (edges ~mode a) in
  Sset.diff tables (Sset.of_list eliminated)
