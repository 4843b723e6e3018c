(** Rejection provenance: the stable [Reject] labels, the exactness of
    [Registry.explain] against the real rule (every view attributed, the
    filtered set identical to population minus candidates, the survivors'
    verdicts matching the matcher), the harness-level aggregation, and the
    interpolated histogram quantiles that feed the per-phase percentiles. *)

module Reject = Mv_core.Reject
module Registry = Mv_core.Registry
module I = Mv_obs.Instrument

let schema = Mv_tpch.Schema.schema

let all_rejects =
  [
    (Reject.Missing_tables, "missing-tables");
    (Reject.Extra_tables_not_eliminable, "extra-tables");
    (Reject.Equijoin_subsumption_failed, "equijoin-subsumption");
    ( Reject.Range_subsumption_failed (Reject.detail "l_quantity"),
      "range-subsumption" );
    ( Reject.Residual_subsumption_failed (Reject.detail "p_name like ..."),
      "residual-subsumption" );
    ( Reject.Compensation_not_computable (Reject.detail "no key"),
      "compensation-not-computable" );
    ( Reject.Output_not_computable (Reject.detail "l_tax"),
      "output-not-computable" );
    ( Reject.Grouping_incompatible (Reject.detail "finer"),
      "grouping-incompatible" );
    (Reject.View_more_aggregated, "view-more-aggregated");
  ]

let test_reject_labels () =
  List.iter
    (fun (r, expected) ->
      Alcotest.(check string) ("label of " ^ expected) expected (Reject.label r))
    all_rejects;
  let labels = List.map (fun (r, _) -> Reject.label r) all_rejects in
  Alcotest.(check int) "nine constructors, nine distinct labels" 9
    (List.length (List.sort_uniq compare labels));
  (* payloads vary the message but never the aggregation key *)
  Alcotest.(check string) "label drops the payload" "range-subsumption"
    (Reject.label (Reject.Range_subsumption_failed (Reject.detail "other_col")))

let test_reject_to_string_and_pp () =
  List.iter
    (fun (r, label) ->
      let s = Reject.to_string r in
      Alcotest.(check bool) (label ^ ": to_string non-empty") true
        (String.length s > 0);
      Alcotest.(check string) (label ^ ": pp agrees with to_string") s
        (Format.asprintf "%a" Reject.pp r))
    all_rejects;
  (* detail payloads surface in the message *)
  Alcotest.(check bool) "payload surfaces" true
    (Helpers.contains ~needle:"l_quantity"
       (Reject.to_string
          (Reject.Range_subsumption_failed (Reject.detail "l_quantity"))));
  let strings = List.map (fun (r, _) -> Reject.to_string r) all_rejects in
  Alcotest.(check int) "messages pairwise distinct" 9
    (List.length (List.sort_uniq compare strings))

(* A registry whose views exercise all three fates: matched, rejected by
   the matcher, and pruned by the filter tree. *)
let make_registry () =
  let registry = Registry.create schema in
  let add name sql =
    let _, vdef = Mv_sql.Parser.parse_view schema sql in
    ignore (Registry.add_view registry ~name vdef)
  in
  add "wn_hit"
    {| create view wn_hit with schemabinding as
       select l_orderkey, l_quantity from dbo.lineitem
       where l_quantity >= 5 |};
  add "wn_narrow"
    {| create view wn_narrow with schemabinding as
       select l_orderkey, l_quantity from dbo.lineitem
       where l_quantity >= 50 |};
  add "wn_other_table"
    {| create view wn_other_table with schemabinding as
       select o_orderkey, o_totalprice from dbo.orders
       where o_totalprice >= 0 |};
  add "wn_no_cols"
    {| create view wn_no_cols with schemabinding as
       select l_partkey from dbo.lineitem
       where l_quantity >= 5 |};
  registry

let query () =
  Mv_sql.Parser.parse_query schema
    "select l_orderkey from lineitem where l_quantity >= 10"

let test_explain_accounts_for_every_view () =
  let registry = make_registry () in
  let qa = Mv_relalg.Analysis.analyze schema (query ()) in
  let expl = Registry.explain registry qa in
  let names = List.map (fun (v, _) -> v.Mv_core.View.name) expl in
  Alcotest.(check (list string))
    "every view exactly once, registration order"
    [ "wn_hit"; "wn_narrow"; "wn_other_table"; "wn_no_cols" ]
    names;
  let fate name =
    List.assoc name
      (List.map (fun (v, e) -> (v.Mv_core.View.name, e)) expl)
  in
  (match fate "wn_hit" with
  | Registry.Matched _ -> ()
  | _ -> Alcotest.fail "wn_hit must match");
  (match fate "wn_other_table" with
  | Registry.Filtered _ -> ()
  | _ -> Alcotest.fail "wn_other_table must be pruned (wrong table)");
  (* wn_narrow's range cannot cover the query; whether the range level
     prunes it or the matcher rejects it, the cause must name ranges *)
  (match fate "wn_narrow" with
  | Registry.Filtered stage ->
      Alcotest.(check bool) "pruned at a range-aware stage" true
        (Helpers.contains ~needle:"range"
           (Mv_core.Filter_tree.stage_name stage))
  | Registry.Rejected r ->
      Alcotest.(check string) "rejected for its range" "range-subsumption"
        (Reject.label r)
  | Registry.Matched _ -> Alcotest.fail "wn_narrow cannot cover [10,inf)")

let test_explain_exact_vs_rule () =
  let registry = make_registry () in
  let qa = Mv_relalg.Analysis.analyze schema (query ()) in
  let expl = Registry.explain registry qa in
  (* the filtered set is precisely the population minus the candidates *)
  let candidate_names =
    List.map
      (fun (v : Mv_core.View.t) -> v.Mv_core.View.name)
      (Registry.candidates registry qa)
  in
  List.iter
    (fun (v, e) ->
      let name = v.Mv_core.View.name in
      let is_candidate = List.mem name candidate_names in
      match e with
      | Registry.Filtered _ ->
          Alcotest.(check bool) (name ^ ": filtered iff not a candidate")
            false is_candidate
      | Registry.Rejected _ | Registry.Matched _ ->
          Alcotest.(check bool) (name ^ ": survivor iff candidate") true
            is_candidate)
    expl;
  (* matched verdicts agree with the rule's substitute count *)
  let matched =
    List.filter (fun (_, e) -> match e with Registry.Matched _ -> true | _ -> false) expl
  in
  let subs = Registry.find_substitutes registry qa in
  Alcotest.(check int) "explain's matches = the rule's substitutes"
    (List.length subs) (List.length matched)

let test_harness_whynot_aggregation () =
  let w =
    Mv_experiments.Harness.make_workload ~nviews:30 ~nqueries:6 ()
  in
  let causes = Mv_experiments.Harness.whynot w ~nviews:30 in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 causes in
  Alcotest.(check int) "every (query, view) pair attributed once" (6 * 30)
    total;
  List.iter
    (fun (cause, n) ->
      Alcotest.(check bool) (cause ^ ": positive count") true (n > 0);
      Alcotest.(check bool) (cause ^ ": known cause shape") true
        (cause = "matched"
        || Helpers.contains ~needle:"filter:" cause
        || Helpers.contains ~needle:"reject:" cause))
    causes;
  (* sorted by descending count *)
  let counts = List.map snd causes in
  Alcotest.(check bool) "sorted by descending count" true
    (List.sort (fun a b -> compare b a) counts = counts)

let test_quantile_interpolation () =
  let h = I.histogram () in
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (I.quantile h 0.5);
  for i = 1 to 100 do
    I.observe h (float_of_int i)
  done;
  (* the true median is 50.5; the bucket alone would answer 64 (the
     (32, 64] power-of-two bound), interpolation lands near the truth *)
  let p50 = I.quantile h 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "interpolated p50 %.2f near the median" p50)
    true
    (p50 >= 45.0 && p50 <= 56.0);
  (* interpolation clamps to the observed extremes *)
  Alcotest.(check bool) "p0 >= min" true (I.quantile h 0.0 >= 1.0);
  Alcotest.(check bool) "p100 <= max" true (I.quantile h 1.0 <= 100.0);
  (* monotone in q *)
  let qs = [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99 ] in
  let vs = List.map (I.quantile h) qs in
  let rec mono = function
    | a :: (b :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "quantiles monotone" true (mono vs);
  (* a single observation is answered exactly *)
  let h1 = I.histogram () in
  I.observe h1 3.25;
  Alcotest.(check (float 1e-9)) "single value exact" 3.25 (I.quantile h1 0.5);
  Alcotest.(check (float 1e-9)) "single value exact at p99" 3.25
    (I.quantile h1 0.99)

let suite =
  [
    ( "whynot",
      [
        Alcotest.test_case "reject labels stable and distinct" `Quick
          test_reject_labels;
        Alcotest.test_case "reject to_string/pp over all constructors" `Quick
          test_reject_to_string_and_pp;
        Alcotest.test_case "explain accounts for every view" `Quick
          test_explain_accounts_for_every_view;
        Alcotest.test_case "explain exact against the rule" `Quick
          test_explain_exact_vs_rule;
        Alcotest.test_case "harness aggregation covers all pairs" `Quick
          test_harness_whynot_aggregation;
        Alcotest.test_case "interpolated quantiles" `Quick
          test_quantile_interpolation;
      ] );
  ]
