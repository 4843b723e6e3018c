(** Cardinality and cost estimation: a deliberately textbook model
    (uniformity + independence) — the experiments measure optimizer
    behaviour, not estimation quality, and the workload generator of
    section 5 needs the same estimates to target its cardinality bands. *)

open Mv_base
module Spjg = Mv_relalg.Spjg
module Stats = Mv_catalog.Stats

(* Estimated rows of an SPJ part: product of table cardinalities times all
   conjunct selectivities. *)
let spj_rows (stats : Stats.t) ~tables ~(where : Pred.t list) : float =
  let base =
    List.fold_left
      (fun acc t -> acc *. float_of_int (max 1 (Stats.row_count stats t)))
      1.0 tables
  in
  let sel =
    List.fold_left
      (fun acc p -> acc *. Mv_relalg.Classify.selectivity stats p)
      1.0 where
  in
  Float.max 1.0 (base *. sel)

(* Distinct groups of a grouping list, capped by input rows. *)
let group_rows (stats : Stats.t) ~(input : float) (gexprs : Expr.t list) :
    float =
  if gexprs = [] then 1.0
  else
    let ndv_of g =
      match g with
      | Expr.Col c -> float_of_int (Stats.ndv stats c)
      | _ -> 100.0
    in
    let prod = List.fold_left (fun acc g -> acc *. ndv_of g) 1.0 gexprs in
    (* groups cannot exceed input rows; dampen the independence blowup *)
    Float.max 1.0 (Float.min prod (input /. 2.0 +. 1.0))

let block_rows (stats : Stats.t) (b : Spjg.t) : float =
  let spj = spj_rows stats ~tables:b.Spjg.tables ~where:b.Spjg.where in
  match b.Spjg.group_by with
  | None -> spj
  | Some gs -> group_rows stats ~input:spj gs

(* Estimated row count used when registering a view without materializing
   it (the benches run against statistics only). With [name], a statistics
   entry built from the view's actual contents — at materialization time or
   by [Ivm.refresh_stats] — takes precedence over the analytic model
   (ROADMAP item 4: view-level statistics). *)
let estimate_view_rows ?name stats (spjg : Spjg.t) : int =
  let measured =
    Option.bind name (fun n ->
        Option.map
          (fun (ts : Stats.table_stats) -> ts.Stats.row_count)
          (Stats.table stats n))
  in
  match measured with
  | Some n -> n
  | None -> int_of_float (block_rows stats spjg)
