(** Computing the query's output expressions from the view's output
    (section 3.1.4) and the aggregation rewrites of section 3.3.

    Query expressions arrive with their {!Mv_relalg.Residual.shape} from
    the analysis, and the view's output and SUM templates were shaped at
    registration, so finding an identical view expression compares ids. *)

open Mv_base
module A = Mv_relalg.Analysis
module Spjg = Mv_relalg.Spjg
module Residual = Mv_relalg.Residual

let view_col (view : View.t) name = Expr.Col (Col.make view.View.name name)

(* A scalar expression of the query, rewritten over the view's output:
   - constants are copied;
   - a bare column is routed (via query classes) to an output column;
   - a complex expression first looks for an identical view output
     expression (template + positional column equivalence), then falls back
     to computing it from routable source columns. *)
let scalar (router : Routing.t) (q_equiv : Mv_relalg.Equiv.t) (e : Expr.t)
    (shape : Residual.shape) : Expr.t option =
  let view = router.Routing.view in
  match e with
  | Expr.Const _ -> Some e
  | Expr.Col _ -> Routing.route_expr router q_equiv shape.Residual.ids.(0)
  | _ -> (
      let exact =
        List.find_opt
          (fun (s, _) -> Residual.shapes_match q_equiv shape s)
          view.View.matching.View.expr_outs
      in
      match exact with
      | Some (_, name) -> Some (view_col view name)
      | None -> Expr.map_cols_opt (Routing.route router q_equiv) e)

(* The view's SUM output matching the shape under the query classes. *)
let sum_col (view : View.t) (q_equiv : Mv_relalg.Equiv.t)
    (shape : Residual.shape) : string option =
  List.find_map
    (fun (s, name) ->
      if Residual.shapes_match q_equiv shape s then Some name else None)
    view.View.matching.View.sum_outs

(* Rewrite one query output item over the view for the three aggregation
   situations:
   [`Plain]            SPJ query over SPJ view (or the SPJ part mapping);
   [`Agg_over_spj]     aggregation query over an SPJ view: the substitute
                       carries the query's group-by, aggregates keep their
                       shape with rewritten arguments;
   [`Agg_same]         aggregation query over an aggregation view with the
                       same grouping: no further aggregation, aggregates map
                       to the view's sum/count columns;
   [`Agg_regroup]      aggregation query over a less aggregated view:
                       count -> SUM(cnt), SUM(E) -> SUM(sum_E),
                       AVG(E) -> SUM(sum_E)/SUM(cnt). *)
let out_item (router : Routing.t) (q_equiv : Mv_relalg.Equiv.t) ~situation
    (o : Spjg.out_item) (shape : Residual.shape) :
    (Spjg.out_item, Reject.t) result =
  let view = router.Routing.view in
  let fail detail = Error (Reject.Output_not_computable detail) in
  let need_scalar e k =
    match scalar router q_equiv e shape with
    | Some e' -> k e'
    | None -> fail (fun () -> Fmt.str "expression %s" (Expr.to_string e))
  in
  let need_count k =
    match view.View.matching.View.count_out with
    | Some c -> k c
    | None -> fail (Reject.detail "view has no count column")
  in
  let need_sum e k =
    match sum_col view q_equiv shape with
    | Some c -> k c
    | None ->
        fail (fun () ->
            Fmt.str "no view column for sum(%s)" (Expr.to_string e))
  in
  (* AVG(E) as sum_E over cnt: cnt = COUNT_BIG( * ) counts rows, which
     are E's non-null inputs only when E reads no nullable column *)
  let need_avg e k =
    if Mv_catalog.Schema.reads_nullable view.View.analysis.A.schema e then
      fail (fun () ->
          Fmt.str "avg(%s) reads a nullable column; the view counts rows"
            (Expr.to_string e))
    else
      need_sum e (fun s ->
          need_count (fun c -> k (view_col view s) (view_col view c)))
  in
  let name = o.Spjg.name in
  match (o.Spjg.def, situation) with
  | Spjg.Scalar e, _ -> need_scalar e (fun e' -> Ok (Spjg.scalar name e'))
  | Spjg.Aggregate Spjg.Count_star, `Agg_over_spj ->
      Ok (Spjg.aggregate name Spjg.Count_star)
  | Spjg.Aggregate Spjg.Count_star, `Agg_same ->
      need_count (fun c -> Ok (Spjg.scalar name (view_col view c)))
  | Spjg.Aggregate Spjg.Count_star, `Agg_regroup ->
      (* COALESCE(SUM(cnt), 0): a scalar-aggregate count over an empty
         selection must be 0, which a plain SUM would turn into NULL *)
      need_count (fun c -> Ok (Spjg.aggregate name (Spjg.Sum0 (view_col view c))))
  | Spjg.Aggregate (Spjg.Sum e), `Agg_over_spj ->
      need_scalar e (fun e' -> Ok (Spjg.aggregate name (Spjg.Sum e')))
  | Spjg.Aggregate (Spjg.Sum e), `Agg_same ->
      need_sum e (fun c -> Ok (Spjg.scalar name (view_col view c)))
  | Spjg.Aggregate (Spjg.Sum e), `Agg_regroup ->
      need_sum e (fun c -> Ok (Spjg.aggregate name (Spjg.Sum (view_col view c))))
  | Spjg.Aggregate (Spjg.Avg e), `Agg_over_spj ->
      need_scalar e (fun e' -> Ok (Spjg.aggregate name (Spjg.Avg e')))
  | Spjg.Aggregate (Spjg.Avg e), `Agg_same ->
      need_avg e (fun s c ->
          Ok (Spjg.scalar name (Expr.Binop (Expr.Div, s, c))))
  | Spjg.Aggregate (Spjg.Avg e), `Agg_regroup ->
      need_avg e (fun s c -> Ok (Spjg.aggregate name (Spjg.Sum_div_sum (s, c))))
  | Spjg.Aggregate (Spjg.Sum_div_sum _ | Spjg.Sum0 _), _ ->
      fail (Reject.detail "SUM/SUM and coalesced SUM are internal to substitutes")
  | Spjg.Aggregate _, `Plain ->
      (* Spjg.make forbids aggregates without GROUP BY *)
      assert false

let out_items router q_equiv ~situation items shapes :
    (Spjg.out_item list, Reject.t) result =
  let rec go acc i = function
    | [] -> Ok (List.rev acc)
    | o :: rest -> (
        match out_item router q_equiv ~situation o shapes.(i) with
        | Ok o' -> go (o' :: acc) (i + 1) rest
        | Error _ as e -> e)
  in
  go [] 0 items
