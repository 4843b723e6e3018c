(** Classification of CNF conjuncts into the paper's groups
    (section 3.1.2):

    - PE: column-equality predicates [Ti.Cp = Tj.Cq]
    - PR: range predicates [Ti.Cp op c] with op in <, <=, =, >=, >
    - PR-disjunctive: OR-of-range-atoms on a single column (the paper's
      disjunction extension; e.g. a CNF clause from "x BETWEEN 1 AND 5 OR
      x = 7")
    - PU: residual predicates (everything else) *)

open Mv_base
module Stats = Mv_catalog.Stats

type classified = {
  col_eqs : (Col.t * Col.t) list;
  ranges : (Col.t * Pred.cmp * Value.t) list;
  disj_ranges : (Col.t * Interval.t list) list;
  residuals : Pred.t list;
}

let range_op = function
  | Pred.Eq | Pred.Lt | Pred.Le | Pred.Gt | Pred.Ge -> true
  | Pred.Ne -> false

(* An atomic range predicate, normalized to column-op-constant. *)
let range_atom (p : Pred.t) =
  match p with
  | Pred.Cmp (op, Expr.Col c, Expr.Const v)
    when range_op op && not (Value.is_null v) ->
      Some (c, op, v)
  | Pred.Cmp (op, Expr.Const v, Expr.Col c)
    when range_op op && not (Value.is_null v) ->
      Some (c, Pred.flip_cmp op, v)
  | _ -> None

let rec flatten_or = function
  | Pred.Or (a, b) -> flatten_or a @ flatten_or b
  | p -> [ p ]

let classify_one (p : Pred.t) =
  match p with
  | Pred.Cmp (Pred.Eq, Expr.Col a, Expr.Col b) -> `Col_eq (a, b)
  | Pred.Or _ -> (
      (* a disjunction whose atoms are all ranges on one column *)
      let atoms = List.map range_atom (flatten_or p) in
      match atoms with
      | Some (c0, op0, v0) :: rest
        when List.for_all
               (function
                 | Some (c, _, _) -> Col.equal c c0
                 | None -> false)
               rest ->
          let intervals =
            Interval.of_cmp op0 v0
            :: List.filter_map
                 (Option.map (fun (_, op, v) -> Interval.of_cmp op v))
                 rest
          in
          `Disj_range (c0, intervals)
      | _ -> `Residual p)
  | _ -> (
      match range_atom p with
      | Some (c, op, v) -> `Range (c, op, v)
      | None -> `Residual p)

(* Selectivity of one conjunct under uniformity and independence: the
   one model behind the optimizer's cardinalities and the executor's join
   order. *)
let selectivity (stats : Stats.t) (p : Pred.t) : float =
  match classify_one p with
  | `Col_eq (a, b) ->
      (* equijoin: 1/max(ndv) — also reasonable for same-table equality *)
      1.0 /. float_of_int (max (Stats.ndv stats a) (Stats.ndv stats b))
  | `Range (c, op, v) -> Stats.range_selectivity stats c op v
  | `Disj_range (c, intervals) ->
      (* sum the interval fractions, assuming disjointness after
         normalization *)
      let interval_sel (i : Interval.t) =
        let upper =
          match i.Interval.hi with
          | Interval.Unbounded -> 1.0
          | Interval.Incl v | Interval.Excl v ->
              Stats.range_selectivity stats c Pred.Le v
        in
        let below =
          match i.Interval.lo with
          | Interval.Unbounded -> 0.0
          | Interval.Incl v | Interval.Excl v ->
              Stats.range_selectivity stats c Pred.Lt v
        in
        Float.max 0.0005 (upper -. below)
      in
      Float.min 1.0
        (List.fold_left
           (fun acc i -> acc +. interval_sel i)
           0.0 (Rset.normalize intervals))
  | `Residual p -> (
      match p with
      | Pred.Like _ -> 0.1
      | Pred.Is_null _ -> 0.02
      | Pred.Not _ -> 0.9
      | Pred.Or _ -> 0.5
      | _ -> 0.25)

let classify (conjuncts : Pred.t list) : classified =
  let col_eqs, ranges, disj, residuals =
    List.fold_left
      (fun (es, rs, ds, us) p ->
        match classify_one p with
        | `Col_eq (a, b) -> ((a, b) :: es, rs, ds, us)
        | `Range (c, op, v) -> (es, (c, op, v) :: rs, ds, us)
        | `Disj_range (c, is) -> (es, rs, (c, is) :: ds, us)
        | `Residual p -> (es, rs, ds, p :: us))
      ([], [], [], []) conjuncts
  in
  {
    col_eqs = List.rev col_eqs;
    ranges = List.rev ranges;
    disj_ranges = List.rev disj;
    residuals = List.rev residuals;
  }
