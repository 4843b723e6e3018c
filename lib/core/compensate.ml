(** Routing of compensating predicates (section 3.1.3).

    Compensating column-equality predicates are routed through the VIEW's
    equivalence classes (they exist precisely to enforce equalities the view
    does not provide, so the query classes cannot be trusted yet); range and
    residual compensations are routed through the QUERY's (extended)
    classes. Routing normally targets view output columns; with backjoins
    enabled it may fall back to a backjoined base table (see [Routing]). If
    any referenced column cannot be resolved, the view is rejected. *)

open Mv_base
module Interval = Mv_relalg.Interval

let col_name c = Col.to_string (Mv_relalg.Intern.col_of_id c)

(* Compensating equalities: route both sides via view classes. *)
let equalities (router : Routing.t) (pairs : (int * int) list) :
    (Pred.t list, Reject.t) result =
  let v_equiv = router.Routing.view.View.analysis.Mv_relalg.Analysis.equiv in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (a, b) :: rest -> (
        match
          (Routing.route_expr router v_equiv a, Routing.route_expr router v_equiv b)
        with
        | Some ea, Some eb -> go (Pred.Cmp (Pred.Eq, ea, eb) :: acc) rest
        | _ ->
            Error
              (Reject.Compensation_not_computable
                 (fun () ->
                   Fmt.str "equality %s = %s" (col_name a) (col_name b))))
  in
  go [] pairs

(* Compensating ranges: any column of the query class will do. *)
let ranges (router : Routing.t) (q_equiv : Mv_relalg.Equiv.t)
    (comps : (int * Interval.t) list) : (Pred.t list, Reject.t) result =
  let rec go acc = function
    | [] -> Ok (List.concat (List.rev acc))
    | (c, delta) :: rest -> (
        match Routing.route_expr router q_equiv c with
        | Some e -> go (Interval.to_preds e delta :: acc) rest
        | None ->
            Error
              (Reject.Compensation_not_computable
                 (fun () -> Fmt.str "range on %s" (col_name c))))
  in
  go [] comps

(* Compensating residuals: rewrite every column reference through the query
   classes. *)
let residuals (router : Routing.t) (q_equiv : Mv_relalg.Equiv.t)
    (preds : Pred.t list) : (Pred.t list, Reject.t) result =
  let route c = Routing.route router q_equiv c in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match Pred.map_cols_opt route p with
        | Some p' -> go (p' :: acc) rest
        | None ->
            Error
              (Reject.Compensation_not_computable
                 (fun () -> Fmt.str "residual %s" (Pred.to_string p))))
  in
  go [] preds

(* Disjunctive range compensations: one OR predicate per class. *)
let range_sets (router : Routing.t) (q_equiv : Mv_relalg.Equiv.t)
    (comps : (int * Mv_relalg.Rset.t) list) : (Pred.t list, Reject.t) result
    =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (c, set) :: rest -> (
        match Routing.route_expr router q_equiv c with
        | Some e -> (
            match Mv_relalg.Rset.to_pred e set with
            | Some p -> go (p :: acc) rest
            | None -> go acc rest)
        | None ->
            Error
              (Reject.Compensation_not_computable
                 (fun () -> Fmt.str "range set on %s" (col_name c))))
  in
  go [] comps

let all (router : Routing.t) (tests : Spj_match.ok) :
    (Pred.t list, Reject.t) result =
  let ( let* ) = Result.bind in
  let* eqs = equalities router tests.Spj_match.comp_equalities in
  let* rgs = ranges router tests.Spj_match.q_equiv tests.Spj_match.comp_ranges in
  let* sets =
    range_sets router tests.Spj_match.q_equiv tests.Spj_match.comp_range_sets
  in
  let* res =
    residuals router tests.Spj_match.q_equiv tests.Spj_match.comp_residuals
  in
  Ok (eqs @ rgs @ sets @ res)
