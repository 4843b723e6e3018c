(** Filter-tree soundness property (section 4): the filter tree is an
    index, not an oracle — with [use_filter:true] its candidate set must be
    a superset of the views that actually match when tested linearly.
    Checked for both index plans: {!Filter_tree.default_plan}
    ([backjoins:false]) and {!Filter_tree.backjoin_plan}
    ([backjoins:true], which drops the output levels because backjoins can
    recover missing columns). *)

module Gen = Mv_workload.Generator
module Sset = Mv_util.Sset

let schema = Helpers.schema

let stats = Mv_tpch.Datagen.synthetic_stats ()

let candidate_names registry qa =
  List.fold_left
    (fun acc (v : Mv_core.View.t) -> Sset.add v.Mv_core.View.name acc)
    Sset.empty
    (Mv_core.Registry.candidates registry qa)

(* One case = one fresh mini-workload: the seed drives both the view batch
   and the query batch, so shrinking finds a small failing workload. *)
let check_seed seed =
  let views =
    List.filter_map
      (fun (name, spjg) ->
        match Mv_core.View.create schema ~name spjg with
        | v -> Some v
        | exception Mv_core.View.Rejected _ -> None)
      (Gen.views ~seed:(1000 + seed) schema stats 25)
  in
  let queries = Gen.queries ~seed:(5000 + seed) schema stats 5 in
  List.iter
    (fun backjoins ->
      let filtered = Mv_core.Registry.create ~backjoins schema in
      List.iter (Mv_core.Registry.add_prebuilt filtered) views;
      assert filtered.Mv_core.Registry.use_filter;
      List.iter
        (fun q ->
          let qa = Mv_relalg.Analysis.analyze schema q in
          let cands = candidate_names filtered qa in
          List.iter
            (fun (v : Mv_core.View.t) ->
              match Mv_core.Matcher.match_view ~backjoins ~query:qa v with
              | Ok _ ->
                  if not (Sset.mem v.Mv_core.View.name cands) then
                    QCheck.Test.fail_reportf
                      "%s pruned view %s although it matches query:@.%s"
                      (if backjoins then "backjoin_plan" else "default_plan")
                      v.Mv_core.View.name
                      (Mv_relalg.Spjg.to_sql q)
              | Error _ -> ())
            views)
        queries)
    [ false; true ];
  true

let soundness_prop =
  QCheck.Test.make
    ~name:"filter-tree candidates are a superset of matches (both plans)"
    ~count:(Helpers.qcheck_count 50)
    QCheck.(int_bound 9999)
    check_seed

(* ---- interning equivalence ----

   The tree navigates by interned bitset keys; this reference evaluates the
   same level conditions directly with string/column-set operations on the
   views' un-interned descriptor fields — the pre-interning semantics. A
   view reaches a bucket iff every level condition on its path holds (each
   level partitions by key and applies its predicate to the key alone), so
   the tree must return exactly this set, in both plans. *)

module A = Mv_relalg.Analysis
module FT = Mv_core.Filter_tree
open Mv_base

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

let names vs =
  List.sort compare (List.map (fun v -> v.Mv_core.View.name) vs)

let check_equivalence_seed seed =
  let views =
    List.filter_map
      (fun (name, spjg) ->
        match Mv_core.View.create schema ~name spjg with
        | v -> Some v
        | exception Mv_core.View.Rejected _ -> None)
      (Gen.views ~seed:(3000 + seed) schema stats 25)
  in
  let queries = Gen.queries ~seed:(7000 + seed) schema stats 5 in
  List.iter
    (fun backjoins ->
      let plan = if backjoins then FT.backjoin_plan else FT.default_plan in
      let tree = FT.create ~plan () in
      List.iter (FT.insert tree) views;
      List.iter
        (fun q ->
          let qa = Mv_relalg.Analysis.analyze schema q in
          let got = names (FT.candidates tree qa) in
          let expected = names (reference_candidates ~backjoins views qa) in
          if got <> expected then
            QCheck.Test.fail_reportf
              "%s: interned candidates {%s} <> string-set reference {%s}@.%s"
              (if backjoins then "backjoin_plan" else "default_plan")
              (String.concat "," got)
              (String.concat "," expected)
              (Mv_relalg.Spjg.to_sql q))
        queries)
    [ false; true ];
  true

let equivalence_prop =
  QCheck.Test.make
    ~name:"interned candidates equal the string-set reference (both plans)"
    ~count:(Helpers.qcheck_count 50)
    QCheck.(int_bound 9999)
    check_equivalence_seed

let suite =
  [ ("prop_filter", [ Helpers.qtest soundness_prop;
                      Helpers.qtest equivalence_prop ]) ]
