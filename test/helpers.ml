(** Shared helpers for the test suites. *)

open Mv_base

let schema = Mv_tpch.Schema.schema

(* Insert [rows] into [table], in order, as one write. *)
let insert db table rows =
  Mv_engine.Database.write db
    [ (table, { Mv_engine.Database.ins = rows; del = [] }) ]

let parse_q src = Mv_sql.Parser.parse_query schema src

let parse_v src = Mv_sql.Parser.parse_view schema src

let view_of_sql ?(relaxed_nulls = false) src =
  let name, spjg = parse_v src in
  Mv_core.View.create ~relaxed_nulls schema ~name spjg

let match_sql ?relaxed_nulls ~view_sql ~query_sql () =
  let view = view_of_sql ?relaxed_nulls view_sql in
  Mv_core.Matcher.match_spjg ?relaxed_nulls schema ~query:(parse_q query_sql)
    view

let check_matches ?relaxed_nulls ~view_sql ~query_sql () =
  match match_sql ?relaxed_nulls ~view_sql ~query_sql () with
  | Ok s -> s
  | Error r ->
      Alcotest.failf "expected a match, got rejection: %s"
        (Mv_core.Reject.to_string r)

let check_rejects ?relaxed_nulls ~view_sql ~query_sql () =
  match match_sql ?relaxed_nulls ~view_sql ~query_sql () with
  | Ok s ->
      Alcotest.failf "expected a rejection, got substitute:\n%s"
        (Mv_core.Substitute.to_sql s)
  | Error r -> r

(* Execute [query] directly and via [substitute] over a database seeded
   with generated data, and compare bags. The direct result is also held
   to the naive oracle, which shares no code with the executor, so an
   executor bug that shifts both sides alike still fails. *)
let check_equivalent ?(seed = 7) ?(scale = 1) ~(query : Mv_relalg.Spjg.t)
    (s : Mv_core.Substitute.t) =
  let db = Mv_tpch.Datagen.generate ~seed ~scale () in
  let direct = Mv_engine.Exec.execute db query in
  let naive = Naive.execute db query in
  if not (Mv_engine.Relation.same_bag direct naive) then
    Alcotest.failf
      "direct execution differs from the naive oracle.\nquery:\n%s\ndirect \
       (%d rows):\n%s\nnaive (%d rows):\n%s"
      (Mv_relalg.Spjg.to_sql query)
      (Mv_engine.Relation.cardinality direct)
      (Mv_engine.Relation.to_string direct)
      (Mv_engine.Relation.cardinality naive)
      (Mv_engine.Relation.to_string naive);
  let _ = Mv_engine.Exec.materialize db s.Mv_core.Substitute.view in
  let via_view = Mv_engine.Exec.execute_substitute db s in
  if not (Mv_engine.Relation.same_bag direct via_view) then
    Alcotest.failf
      "rewrite is not equivalent.\nquery:\n%s\nsubstitute:\n%s\ndirect \
       (%d rows):\n%s\nvia view (%d rows):\n%s"
      (Mv_relalg.Spjg.to_sql query)
      (Mv_core.Substitute.to_sql s)
      (Mv_engine.Relation.cardinality direct)
      (Mv_engine.Relation.to_string direct)
      (Mv_engine.Relation.cardinality via_view)
      (Mv_engine.Relation.to_string via_view)

let col t c = Col.make t c

let qtest = QCheck_alcotest.to_alcotest

(* Substring search, for loose assertions on rendered text. *)
let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* qcheck case counts: CI-quick runs can shrink property tests via
   MVIEW_QCHECK_COUNT without touching the test sources. *)
let qcheck_count default =
  match Sys.getenv_opt "MVIEW_QCHECK_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* ---- the filter tree's reference ----

   The level conditions of section 4.2 evaluated directly with
   string/column-set operations on the views' un-interned descriptor
   fields — the pre-interning semantics. A view reaches a bucket iff every
   level condition on its path holds (each level partitions by key and
   applies its predicate to the key alone), so a filter tree over [views]
   must return exactly this set, in both plans. *)

module A = Mv_relalg.Analysis
module FT = Mv_core.Filter_tree
module Sset = Mv_util.Sset

let reference_candidates ~backjoins (views : Mv_core.View.t list) (qa : A.t) =
  let q_tables = qa.A.table_set in
  let q_out_templates = A.output_expr_templates qa in
  let q_out_classes =
    List.map
      (fun (c, _) -> Mv_relalg.Equiv.class_of qa.A.equiv c)
      (A.col_outputs qa)
  in
  let q_res_templates = A.residual_templates qa in
  let q_range_cols =
    List.fold_left
      (fun acc cls -> Sset.union acc (Mv_core.View.cols_to_strings cls))
      Sset.empty
      (A.range_constrained_classes qa)
  in
  let q_group_templates = A.grouping_expr_templates qa in
  let q_group_classes =
    match qa.A.spjg.Mv_relalg.Spjg.group_by with
    | None -> []
    | Some gs ->
        List.filter_map
          (function
            | Expr.Col c -> Some (Mv_relalg.Equiv.class_of qa.A.equiv c)
            | _ -> None)
          gs
  in
  let q_is_agg = Mv_relalg.Spjg.is_aggregate qa.A.spjg in
  let covers classes view_cols =
    List.for_all
      (fun cls -> not (Col.Set.is_empty (Col.Set.inter cls view_cols)))
      classes
  in
  let level_ok (v : Mv_core.View.t) = function
    | FT.Hubs -> Sset.subset v.Mv_core.View.hub q_tables
    | FT.Source_tables -> Sset.subset q_tables v.Mv_core.View.source_tables
    | FT.Output_exprs ->
        Sset.subset q_out_templates (Mv_core.View.output_expr_templates v)
    | FT.Output_cols -> covers q_out_classes (Mv_core.View.extended_output_cols v)
    | FT.Residuals ->
        Sset.subset (Mv_core.View.residual_templates v) q_res_templates
    | FT.Range_cols -> Sset.subset (Mv_core.View.reduced_range_cols v) q_range_cols
    | FT.Grouping_exprs ->
        Sset.subset q_group_templates (Mv_core.View.grouping_expr_templates v)
    | FT.Grouping_cols ->
        covers q_group_classes (Mv_core.View.extended_grouping_cols v)
  in
  let common =
    if backjoins then
      [ FT.Hubs; FT.Source_tables; FT.Residuals; FT.Range_cols ]
    else
      [
        FT.Hubs;
        FT.Source_tables;
        FT.Output_exprs;
        FT.Output_cols;
        FT.Residuals;
        FT.Range_cols;
      ]
  in
  let strong_ok v =
    List.for_all
      (fun cls ->
        not
          (Sset.is_empty
             (Sset.inter (Mv_core.View.cols_to_strings cls) q_range_cols)))
      (Mv_core.View.range_classes v)
  in
  List.filter
    (fun v ->
      List.for_all (level_ok v) common
      && (if Mv_core.View.is_aggregate v then
            q_is_agg
            && List.for_all (level_ok v) [ FT.Grouping_exprs; FT.Grouping_cols ]
          else true)
      && strong_ok v)
    views

