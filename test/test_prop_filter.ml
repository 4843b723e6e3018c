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

   The tree navigates by interned bitset keys; {!Helpers.reference_candidates}
   evaluates the same level conditions directly with string/column-set
   operations on the views' un-interned descriptor fields, so the tree must
   return exactly its set, in both plans. *)

module FT = Mv_core.Filter_tree

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
      let tree =
        List.fold_left
          (fun t v -> fst (FT.insert t v))
          (FT.create ~plan ()) views
      in
      List.iter
        (fun q ->
          let qa = Mv_relalg.Analysis.analyze schema q in
          let got = names (FT.candidates tree qa) in
          let expected =
            names (Helpers.reference_candidates ~backjoins views qa)
          in
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
