(** Allocation budget of the optimizer: minor words per optimization over
    a fixed section 5 slice at 1000 views (the first 100 queries of the
    harness population), one warm, uncached, single-domain pass. Words per
    optimization repeat across processes to far better than the
    tolerance, so unlike wall time they can gate a regression in CI. *)

module H = Mv_experiments.Harness

(* Measured on this slice. Before the section 3 tests moved to dense
   column ids the same pass took 679,388 words per optimization (581,164
   on the full 1000-query pass); the budget is 0.24 of that. *)
let budget = 161_944.

let tolerance = 0.03

let words_per_optimization () =
  let w = H.make_workload ~nqueries:100 () in
  let registry = Mv_core.Registry.create w.H.schema in
  List.iter (Mv_core.Registry.add_prebuilt registry) w.H.views;
  Mv_relalg.Intern.freeze ();
  let pass () =
    List.iter
      (fun q -> ignore (Mv_opt.Optimizer.optimize registry w.H.stats q))
      w.H.queries
  in
  pass ();
  let before = Gc.minor_words () in
  pass ();
  (Gc.minor_words () -. before) /. float_of_int (List.length w.H.queries)

let test_budget () =
  let words = words_per_optimization () in
  if words > budget *. (1. +. tolerance) then
    Alcotest.failf
      "%.0f minor words per optimization, over the budget of %.0f by %.1f%%"
      words budget
      (100. *. ((words /. budget) -. 1.))

let suite =
  [
    ( "budget",
      [ Alcotest.test_case "minor words per optimization" `Quick test_budget ] );
  ]
