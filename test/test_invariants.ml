(** Cross-cutting invariants over random workload views: descriptor
    consistency, registry insert/remove round-trips, matcher determinism,
    and substitute well-formedness. *)

module Spjg = Mv_relalg.Spjg
module Sset = Mv_util.Sset

let schema = Mv_tpch.Schema.schema
let stats = Mv_tpch.Datagen.synthetic_stats ()

let random_view seed =
  let rng = Mv_util.Prng.create (seed + 606060) in
  Mv_workload.Generator.generate_view schema stats rng

let descriptor_invariants_prop =
  QCheck.Test.make ~name:"view descriptor: structural invariants" ~count:300
    QCheck.small_int
    (fun seed ->
      let spjg = random_view seed in
      let v = Mv_core.View.create schema ~name:"inv" spjg in
      (* hub is a nonempty subset of the source tables *)
      Sset.subset v.Mv_core.View.hub v.Mv_core.View.source_tables
      && (not (Sset.is_empty v.Mv_core.View.hub))
      (* the extended output set contains every bare-column output *)
      && List.for_all
           (fun (c, _) -> Mv_base.Col.Set.mem c (Mv_core.View.extended_output_cols v))
           (Mv_relalg.Analysis.col_outputs v.Mv_core.View.analysis)
      (* reduced range columns are a subset of the full range classes *)
      && Sset.for_all
           (fun s ->
             List.exists
               (fun cls ->
                 Mv_base.Col.Set.exists
                   (fun c -> Mv_base.Col.to_string c = s)
                   cls)
               (Mv_core.View.range_classes v))
           (Mv_core.View.reduced_range_cols v)
      (* aggregation views have grouping keys; SPJ views none *)
      &&
      if Mv_core.View.is_aggregate v then true
      else Sset.is_empty (Mv_core.View.grouping_expr_templates v)
           && Mv_base.Col.Set.is_empty (Mv_core.View.extended_grouping_cols v))

let remove_restores_candidates_prop =
  QCheck.Test.make ~name:"registry: remove/re-add round-trips" ~count:100
    QCheck.small_int
    (fun seed ->
      let r = Mv_core.Registry.create schema in
      let views =
        List.init 10 (fun i -> (Printf.sprintf "rr%d" i, random_view (seed + i)))
      in
      List.iter (fun (n, s) -> ignore (Mv_core.Registry.add_view r ~name:n s)) views;
      let rng = Mv_util.Prng.create (seed + 17) in
      let q =
        Mv_relalg.Analysis.analyze schema
          (Mv_workload.Generator.generate_query schema stats rng)
      in
      let names l = List.sort compare (List.map (fun v -> v.Mv_core.View.name) l) in
      let before = names (Mv_core.Registry.candidates r q) in
      (* remove half, re-add, candidates must be identical *)
      List.iteri
        (fun i (n, _) -> if i mod 2 = 0 then Mv_core.Registry.remove_view r n)
        views;
      List.iteri
        (fun i (n, s) ->
          if i mod 2 = 0 then ignore (Mv_core.Registry.add_view r ~name:n s))
        views;
      names (Mv_core.Registry.candidates r q) = before)

let matcher_deterministic_prop =
  QCheck.Test.make ~name:"matcher: deterministic output" ~count:150
    QCheck.small_int
    (fun seed ->
      let rng = Mv_util.Prng.create (seed + 99) in
      let view_def = Mv_workload.Generator.generate_view schema stats rng in
      let q = Mv_workload.Generator.generate_query schema stats rng in
      let v1 = Mv_core.View.create schema ~name:"det" view_def in
      let v2 = Mv_core.View.create schema ~name:"det" view_def in
      let run v = Mv_core.Matcher.match_spjg schema ~query:q v in
      match (run v1, run v2) with
      | Ok a, Ok b ->
          Mv_core.Substitute.to_sql a = Mv_core.Substitute.to_sql b
      | Error _, Error _ -> true
      | _ -> false)

let substitute_wellformed_prop =
  QCheck.Test.make ~name:"substitute: well-formed blocks" ~count:200
    QCheck.small_int
    (fun seed ->
      let rng = Mv_util.Prng.create (seed + 2024) in
      let view_def = Mv_workload.Generator.generate_view schema stats rng in
      let q = Mv_workload.Generator.generate_query schema stats rng in
      let v = Mv_core.View.create schema ~name:"wf" view_def in
      match Mv_core.Matcher.match_spjg schema ~query:q v with
      | Error _ -> true
      | Ok s ->
          let b = s.Mv_core.Substitute.block in
          (* same output names as the query, same order *)
          Spjg.out_names b = Spjg.out_names q
          (* references only the view *)
          && b.Spjg.tables = [ "wf" ]
          (* every column reference is a view output *)
          && List.for_all
               (fun (c : Mv_base.Col.t) ->
                 c.Mv_base.Col.tbl = "wf"
                 && Spjg.find_out (Mv_core.View.spjg v) c.Mv_base.Col.col
                    <> None)
               (Mv_base.Col.Set.elements (Spjg.referenced_columns b)))

let suite =
  [
    ( "invariants",
      [
        Helpers.qtest descriptor_invariants_prop;
        Helpers.qtest remove_restores_candidates_prop;
        Helpers.qtest matcher_deterministic_prop;
        Helpers.qtest substitute_wellformed_prop;
      ] );
  ]
