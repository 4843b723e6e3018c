(** Physical-ish plans produced by the optimizer.

    Intermediate results are bags of bindings (column -> value), keyed by
    base-table columns, so expressions of the original query evaluate
    unchanged at any level of the plan. A leaf executes an SPJG block —
    either computed from base tables or read from a materialized view via a
    substitute — and rebinds its output columns: bare-column outputs to
    their base column, aggregate outputs to synthetic "#agg" columns. *)

open Mv_base
module Spjg = Mv_relalg.Spjg

type source =
  | Computed of Spjg.t
  | Via of Mv_core.Substitute.t  (** read from a materialized view *)

type t =
  | Leaf of {
      source : source;
      binds : (string * Col.t) list;
          (** output name -> binding key for upper operators *)
      est_rows : float;
      est_cost : float;
    }
  | Join of {
      left : t;
      right : t;
      keys : (Col.t * Col.t) list;  (** (left col, right col) equijoin keys *)
      post : Pred.t list;  (** residual predicates applied after the join *)
      est_rows : float;
      est_cost : float;
    }
  | Aggregate of {
      input : t;
      group_by : Expr.t list;
      out : Spjg.out_item list;
      est_rows : float;
      est_cost : float;
    }

let est_rows = function
  | Leaf l -> l.est_rows
  | Join j -> j.est_rows
  | Aggregate a -> a.est_rows

let est_cost = function
  | Leaf l -> l.est_cost
  | Join j -> j.est_cost
  | Aggregate a -> a.est_cost

(* Does the winning plan read any materialized view? (Figure 4 reports the
   number of final plans using views.) *)
let rec uses_view = function
  | Leaf { source = Via _; _ } -> true
  | Leaf { source = Computed _; _ } -> false
  | Join { left; right; _ } -> uses_view left || uses_view right
  | Aggregate { input; _ } -> uses_view input

let rec views_used = function
  | Leaf { source = Via s; _ } -> [ s.Mv_core.Substitute.view.Mv_core.View.name ]
  | Leaf { source = Computed _; _ } -> []
  | Join { left; right; _ } -> views_used left @ views_used right
  | Aggregate { input; _ } -> views_used input

let rec pp ?(indent = 0) ppf t =
  let pad = String.make indent ' ' in
  match t with
  | Leaf { source = Computed b; est_rows; est_cost; _ } ->
      Fmt.pf ppf "%sScan[%s] (rows=%.0f cost=%.0f)@." pad
        (String.concat "," b.Spjg.tables)
        est_rows est_cost
  | Leaf { source = Via s; est_rows; est_cost; _ } ->
      Fmt.pf ppf "%sViewScan[%s] (rows=%.0f cost=%.0f)@." pad
        s.Mv_core.Substitute.view.Mv_core.View.name est_rows est_cost
  | Join { left; right; keys; est_rows; est_cost; _ } ->
      Fmt.pf ppf "%sHashJoin on %s (rows=%.0f cost=%.0f)@.%a%a" pad
        (String.concat ", "
           (List.map
              (fun (a, b) -> Col.to_string a ^ "=" ^ Col.to_string b)
              keys))
        est_rows est_cost
        (fun ppf -> pp ~indent:(indent + 2) ppf)
        left
        (fun ppf -> pp ~indent:(indent + 2) ppf)
        right
  | Aggregate { input; group_by; est_rows; est_cost; _ } ->
      Fmt.pf ppf "%sGroupAggregate by [%s] (rows=%.0f cost=%.0f)@.%a" pad
        (String.concat ", " (List.map Expr.to_string group_by))
        est_rows est_cost
        (fun ppf -> pp ~indent:(indent + 2) ppf)
        input

let to_string t = Fmt.str "%a" (fun ppf -> pp ppf) t
