(** Reference join graph over table-name lists: the definitions the
    optimizer used before a query's tables became bitmasks
    ({!Mv_opt.Block}). Every test scans the WHERE list afresh, so the
    tests keep it as the model the mask tests are held to. *)

open Mv_base
module Spjg = Mv_relalg.Spjg

(* The column-equality edges between distinct tables. *)
let table_edges (query : Spjg.t) =
  List.filter_map
    (fun p ->
      match p with
      | Pred.Cmp (Pred.Eq, Expr.Col a, Expr.Col b) when a.Col.tbl <> b.Col.tbl
        ->
          Some (a.Col.tbl, b.Col.tbl)
      | _ -> None)
    query.Spjg.where

let connected edges tables =
  match tables with
  | [] -> false
  | first :: _ ->
      let rec grow seen =
        let next =
          List.filter
            (fun t ->
              (not (List.mem t seen))
              && List.exists
                   (fun (a, b) ->
                     (a = t && List.mem b seen) || (b = t && List.mem a seen))
                   edges)
            tables
        in
        match next with [] -> seen | _ -> grow (next @ seen)
      in
      List.length (grow [ first ]) = List.length tables

(* Crossing column-equality conjuncts between two table sets, oriented
   (left column, right column). *)
let cross_keys (query : Spjg.t) left_tables right_tables =
  List.filter_map
    (fun p ->
      match p with
      | Pred.Cmp (Pred.Eq, Expr.Col a, Expr.Col b) ->
          if List.mem a.Col.tbl left_tables && List.mem b.Col.tbl right_tables
          then Some (a, b)
          else if
            List.mem b.Col.tbl left_tables && List.mem a.Col.tbl right_tables
          then Some (b, a)
          else None
      | _ -> None)
    query.Spjg.where

(* Conjuncts of [query] that only reference tables in [subset]. *)
let local_preds (query : Spjg.t) (subset : string list) =
  List.filter
    (fun p ->
      List.for_all
        (fun (c : Col.t) -> List.mem c.Col.tbl subset)
        (Pred.columns p))
    query.Spjg.where

let is_key keys p =
  List.exists
    (fun (x, y) ->
      Pred.equal p (Pred.Cmp (Pred.Eq, Expr.Col x, Expr.Col y))
      || Pred.equal p (Pred.Cmp (Pred.Eq, Expr.Col y, Expr.Col x)))
    keys

(* The memo's post conjuncts of a split: local to the union, local to
   neither side, and not one of the split's keys. *)
let post (query : Spjg.t) lt rt =
  let keys = cross_keys query lt rt in
  List.filter
    (fun p ->
      (not (List.memq p (local_preds query lt)))
      && (not (List.memq p (local_preds query rt)))
      && not (is_key keys p))
    (local_preds query (lt @ rt))

(* The preaggregation pass's post conjuncts when table [r] joins the
   tables [avail]: those that reference [r] and another table and become
   fully bound, minus the join's keys. *)
let attach_post (query : Spjg.t) avail r =
  let keys = cross_keys query avail [ r ] in
  let avail_after = r :: avail in
  List.filter
    (fun p ->
      let cols = Pred.columns p in
      List.exists (fun (c : Col.t) -> c.Col.tbl = r) cols
      && List.exists (fun (c : Col.t) -> c.Col.tbl <> r) cols
      && List.for_all (fun (c : Col.t) -> List.mem c.Col.tbl avail_after) cols
      && not (is_key keys p))
    query.Spjg.where

(* The preaggregation pass's greedy pick: the first table of [rest] that
   shares a column equality with [avail], else the first of [rest]. *)
let attach_next (query : Spjg.t) avail rest =
  match List.find_opt (fun r -> cross_keys query avail [ r ] <> []) rest with
  | Some r -> r
  | None -> List.hd rest

(* Columns of [subset] tables the rest of the query still needs: referenced
   by crossing conjuncts, by the output list, or by the grouping list. *)
let needed_cols (query : Spjg.t) (subset : string list) : Col.t list =
  let local = local_preds query subset in
  let crossing =
    List.filter (fun p -> not (List.memq p local)) query.Spjg.where
  in
  let all =
    List.concat_map Pred.columns crossing
    @ Col.Set.elements (Spjg.referenced_columns query)
  in
  List.sort_uniq Col.compare
    (List.filter (fun (c : Col.t) -> List.mem c.Col.tbl subset) all)

(* SPJ block for a subset of the query's tables. *)
let sub_block (query : Spjg.t) (subset : string list) : Spjg.t =
  if
    List.sort String.compare subset = query.Spjg.tables
    && query.Spjg.group_by = None
  then query
  else
    Spjg.make ~tables:subset ~where:(local_preds query subset) ~group_by:None
      ~out:(Mv_opt.Block.out_of_cols (needed_cols query subset))

(* A preaggregated inner block over [subset] (Example 4), as
   {!Mv_opt.Block.preagg_block}. *)
let preagg_block (query : Spjg.t) (subset : string list) :
    Mv_opt.Block.preagg option =
  match query.Spjg.group_by with
  | None -> None
  | Some gq -> (
      let in_subset (c : Col.t) = List.mem c.Col.tbl subset in
      let agg_args =
        List.filter_map
          (fun (o : Spjg.out_item) ->
            match o.Spjg.def with
            | Spjg.Aggregate (Spjg.Sum e | Spjg.Avg e) -> Some e
            | Spjg.Aggregate (Spjg.Sum_div_sum _) ->
                Some (Expr.Const Value.Null)
            | _ -> None)
          query.Spjg.out
      in
      if
        not
          (List.for_all
             (fun e -> List.for_all in_subset (Expr.columns e))
             agg_args)
      then None
      else
        let local_group =
          List.filter (fun g -> List.for_all in_subset (Expr.columns g)) gq
        in
        let local = local_preds query subset in
        let crossing_conjunct_cols =
          List.concat_map Pred.columns
            (List.filter (fun p -> not (List.memq p local)) query.Spjg.where)
        in
        let scalar_out_cols =
          List.concat_map
            (fun (o : Spjg.out_item) ->
              match o.Spjg.def with
              | Spjg.Scalar e -> Expr.columns e
              | Spjg.Aggregate _ -> [])
            query.Spjg.out
        in
        let crossing_cols =
          List.sort_uniq Col.compare
            (List.filter in_subset (crossing_conjunct_cols @ scalar_out_cols))
        in
        let grouping =
          local_group
          @ List.filter_map
              (fun c ->
                let e = Expr.Col c in
                if List.exists (Expr.equal e) local_group then None
                else Some e)
              crossing_cols
        in
        let group_outs =
          List.mapi
            (fun i g ->
              match g with
              | Expr.Col c -> Spjg.scalar c.Col.col (Expr.Col c)
              | e -> Spjg.scalar (Printf.sprintf "g_%d" i) e)
            grouping
        in
        let sum_outs, agg_binds =
          List.fold_left
            (fun (outs, binds) (o : Spjg.out_item) ->
              match o.Spjg.def with
              | Spjg.Aggregate ((Spjg.Sum e | Spjg.Avg e) as a) ->
                  let name = "s_" ^ o.Spjg.name in
                  if List.mem_assoc name binds then (outs, binds)
                  else
                    ( outs @ [ Spjg.aggregate name (Spjg.Sum e) ],
                      binds @ [ (name, a) ] )
              | _ -> (outs, binds))
            ([], []) query.Spjg.out
        in
        let out =
          group_outs @ [ Spjg.aggregate "cnt" Spjg.Count_star ] @ sum_outs
        in
        match
          Spjg.make ~tables:subset
            ~where:(local_preds query subset)
            ~group_by:(Some grouping) ~out
        with
        | block -> Some { Mv_opt.Block.block; agg_binds }
        | exception Spjg.Invalid _ -> None)
