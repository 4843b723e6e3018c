(** The paper-scale pass pinned exactly: the section 5 population (1000
    views, 1000 queries) optimized once under Alt&Filter (substitutes
    kept, filter tree on), cold, in query order. Every figure is
    deterministic, so any change to the filter tree, the matcher, the
    memo or the analysis memo that moves a count, a candidate list or a
    plan fails here with the figure that moved. *)

module H = Mv_experiments.Harness
module R = Mv_core.Registry
module Opt = Mv_opt.Optimizer

let expected_invocations = 10_975

let expected_candidates = 27_357

let expected_substitutes = 17_196

let expected_analyze_calls = 11_641

let expected_memo_hits = 2_608

let expected_plans_using_views = 865

(* MD5 of every plan's text and hex cost, one line per query in order. *)
let expected_plan_digest = "e502473ec19e0d7ca96750640f239253"

(* MD5 of every rule invocation's candidate names, in candidate order,
   one line per invocation in invocation order. *)
let expected_candidate_digest = "1d6220a28670ca079fd7bdc521172209"

let test_paper_pass () =
  let w = H.make_workload ~nviews:1000 ~nqueries:1000 () in
  let registry = R.create w.H.schema in
  List.iter (R.add_prebuilt registry) w.H.views;
  Mv_relalg.Intern.freeze ();
  let candidates = Buffer.create (1 lsl 20) and plans = Buffer.create (1 lsl 20) in
  let record _ views =
    List.iter
      (fun (v : Mv_core.View.t) ->
        Buffer.add_string candidates v.Mv_core.View.name;
        Buffer.add_char candidates ',')
      views;
    Buffer.add_char candidates '\n'
  in
  let used =
    List.fold_left
      (fun used q ->
        let r = Opt.optimize ~record registry w.H.stats q in
        Buffer.add_string plans (Mv_opt.Plan.to_string r.Opt.plan);
        Buffer.add_string plans (Printf.sprintf " %h\n" r.Opt.cost);
        if r.Opt.used_views then used + 1 else used)
      0 w.H.queries
  in
  let count = Mv_obs.Registry.counter_value registry.R.obs in
  let digest b = Digest.to_hex (Digest.string (Buffer.contents b)) in
  Alcotest.(check int) "rule invocations" expected_invocations
    (count "rule.invocations");
  Alcotest.(check int) "candidates" expected_candidates
    (count "rule.candidates");
  Alcotest.(check int) "substitutes" expected_substitutes
    (count "rule.substitutes");
  Alcotest.(check int) "analyze calls" expected_analyze_calls
    (count "optimizer.analyze.calls");
  Alcotest.(check int) "analysis memo hits" expected_memo_hits
    (count "optimizer.analyze.memo_hits");
  Alcotest.(check int) "plans using views" expected_plans_using_views used;
  Alcotest.(check string) "plan digest" expected_plan_digest (digest plans);
  Alcotest.(check string) "candidate digest" expected_candidate_digest
    (digest candidates)

let suite =
  [
    ( "paper-scale",
      [
        Alcotest.test_case "section 5 pass at 1000 views, Alt&Filter" `Quick
          test_paper_pass;
      ] );
  ]
