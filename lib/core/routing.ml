(** Column routing for substitute construction.

    Plain matching routes every column reference to a view output column
    (sections 3.1.3/3.1.4). With the base-table backjoin extension
    (section 7), a reference the view cannot provide may instead resolve to
    a base-table column, provided that table is joined back to the view on
    one of its unique keys — the join is then 1:1 from view rows (or
    groups) to base rows, so neither cardinality nor group contents change.

    Lookups go through the view's precomputed output tables
    ({!View.output_for_id}), on column ids.

    A router collects the columns it failed to resolve; the matcher uses
    that to decide which tables a second, backjoining pass should add. *)

open Mv_base
module Equiv = Mv_relalg.Equiv
module Intern = Mv_relalg.Intern

type t = {
  view : View.t;
  backjoins : string list;  (** base tables available in the substitute *)
  missing : Col.t list ref;  (** columns no routing could resolve *)
}

let plain view = { view; backjoins = []; missing = ref [] }

let with_backjoins view backjoins = { view; backjoins; missing = ref [] }

let record_missing t c =
  if not (List.exists (Col.equal c) !(t.missing)) then
    t.missing := c :: !(t.missing)

let missing_tables t =
  List.sort_uniq String.compare
    (List.map (fun (c : Col.t) -> c.Col.tbl) !(t.missing))

(* Route column id [c] through [equiv] to a view output column; fall back
   to the first (in column order) backjoined base column equivalent to
   [c]. *)
let route_id t (equiv : Equiv.t) c : Col.t option =
  match View.output_for_id t.view equiv c with
  | Some name -> Some (Col.make t.view.View.name name)
  | None -> (
      let fallback =
        if t.backjoins = [] then None
        else
          Equiv.fold_class
            (fun m acc ->
              let cm = Intern.col_of_id m in
              if not (List.mem cm.Col.tbl t.backjoins) then acc
              else
                match acc with
                | Some best when Col.compare best cm <= 0 -> acc
                | _ -> Some cm)
            equiv c None
      in
      match fallback with
      | Some c' -> Some c'
      | None ->
          record_missing t (Intern.col_of_id c);
          None)

let route t equiv (c : Col.t) = route_id t equiv (Intern.col c)

let route_expr t equiv c : Expr.t option =
  Option.map (fun c' -> Expr.Col c') (route_id t equiv c)

(* Can [tbl] be backjoined? Some unique key of [tbl] must be fully
   available as view output columns, routed through the VIEW's own
   equivalence classes — every view row (or group) then carries the key of
   the exact base row it came from. Returns the join predicates. *)
let backjoin_preds (view : View.t) tbl : Pred.t list option =
  let schema = view.View.analysis.Mv_relalg.Analysis.schema in
  let v_equiv = view.View.analysis.Mv_relalg.Analysis.equiv in
  match Mv_catalog.Schema.find_table schema tbl with
  | None -> None
  | Some td ->
      let keys =
        (if td.Mv_catalog.Table_def.primary_key = [] then []
         else [ td.Mv_catalog.Table_def.primary_key ])
        @ td.Mv_catalog.Table_def.unique_keys
      in
      List.find_map
        (fun key ->
          if key = [] then None
          else
            let routed =
              List.filter_map
                (fun k ->
                  let kc = Col.make tbl k in
                  match View.output_for_id view v_equiv (Intern.col kc) with
                  | Some name ->
                      Some
                        (Pred.Cmp
                           ( Pred.Eq,
                             Expr.Col (Col.make view.View.name name),
                             Expr.Col kc ))
                  | None -> None)
                key
            in
            if List.length routed = List.length key then Some routed else None)
        keys
