(** Experiment-harness tests: the sweep machinery itself (counters,
    configurations) and loose shape assertions on a miniature version of
    the paper's Figures 2-4 — loose enough to be timing-robust, tight
    enough to catch a broken filter tree or a dead view-matching rule. *)

module H = Mv_experiments.Harness
module M = Mv_experiments.Measure
module J = Mv_obs.Json

let mini =
  lazy (H.make_workload ~nviews:150 ~nqueries:25 ())

let test_workload_shape () =
  let w = Lazy.force mini in
  Alcotest.(check int) "views" 150 (List.length w.H.views);
  Alcotest.(check int) "queries" 25 (List.length w.H.queries)

let levels m = List.assoc "levels" m.M.subs

let test_counters_consistent () =
  let w = Lazy.force mini in
  let m = H.run w ~nviews:150 ~config:{ H.alt = true; filter = true } in
  let n = M.int m and t = M.float m in
  Alcotest.(check bool) "invocations happen" true (n "invocations" > 0);
  Alcotest.(check bool) "invocations >= queries" true
    (n "invocations" >= n "queries");
  Alcotest.(check bool) "matched <= candidates" true
    (n "matched" <= n "candidates");
  Alcotest.(check bool) "substitutes = matched (one per view)" true
    (n "substitutes" = n "matched");
  Alcotest.(check bool) "rule wall time positive" true
    (t "rule_wall_time_s" > 0.0);
  Alcotest.(check bool) "rule wall time <= total wall" true
    (t "rule_wall_time_s" <= t "wall_time_s" +. 0.05);
  Alcotest.(check bool) "rule cpu time <= total cpu" true
    (t "rule_cpu_time_s" <= t "cpu_time_s" +. 0.05);
  (* CPU can exceed wall only through parallelism; this harness is
     single-threaded, so wall bounds cpu (modulo clock noise) *)
  Alcotest.(check bool) "cpu <= wall + noise" true
    (t "cpu_time_s" <= t "wall_time_s" +. 0.1);
  (* every optimization ran each phase's histogram; total once per query *)
  Alcotest.(check int) "phases.total.calls" (n "queries")
    (n "phases.total.calls");
  (* the Filter configuration must report a per-level breakdown *)
  Alcotest.(check bool) "level flow present" true (levels m <> []);
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "level %s passes <= entered" (M.string l "level"))
        true
        (M.int l "out" <= M.int l "in"))
    (levels m)

let test_noalt_same_invocations_no_plans () =
  let w = Lazy.force mini in
  let alt = H.run w ~nviews:150 ~config:{ H.alt = true; filter = true } in
  let noalt = H.run w ~nviews:150 ~config:{ H.alt = false; filter = true } in
  (* the rule runs either way; only plan usage differs *)
  Alcotest.(check bool) "noalt never uses views" true
    (M.int noalt "plans_using_views" = 0);
  Alcotest.(check bool) "alt uses some views" true
    (M.int alt "plans_using_views" > 0);
  (* NoAlt skips the exploration of substitute-derived alternatives, so it
     can only have fewer or equal invocations *)
  Alcotest.(check bool) "invocation counts comparable" true
    (abs (M.int alt "invocations" - M.int noalt "invocations")
    <= M.int alt "invocations" / 2)

let test_filter_reduces_candidates () =
  let w = Lazy.force mini in
  let filtered = H.run w ~nviews:150 ~config:{ H.alt = true; filter = true } in
  let linear = H.run w ~nviews:150 ~config:{ H.alt = true; filter = false } in
  (* identical matches... *)
  Alcotest.(check int) "same substitutes" (M.int linear "substitutes")
    (M.int filtered "substitutes");
  Alcotest.(check int) "same plans" (M.int linear "plans_using_views")
    (M.int filtered "plans_using_views");
  (* ...from far fewer candidates *)
  let fc = M.int filtered "candidates" and lc = M.int linear "candidates" in
  Alcotest.(check bool)
    (Printf.sprintf "filtered %d << linear %d" fc lc)
    true (fc * 5 < lc);
  Alcotest.(check bool) "no levels without the filter tree" true
    (levels linear = [])

let test_more_views_more_plans () =
  let w = Lazy.force mini in
  let at n = H.run w ~nviews:n ~config:{ H.alt = true; filter = true } in
  let m0 = at 0 and m150 = at 150 in
  Alcotest.(check int) "no views, no view plans" 0
    (M.int m0 "plans_using_views");
  Alcotest.(check bool) "views get used" true
    (M.int m150 "plans_using_views" > 0);
  Alcotest.(check bool) "candidate counts grow" true
    (M.int m150 "candidates" >= M.int m0 "candidates")

(* The grid in order, and every cell's JSON carrying the trajectory's key
   paths: a percentile block and a call count in the same phase object. *)
let test_sweep_covers_grid () =
  let w = Lazy.force mini in
  let configs =
    [ { H.alt = true; filter = true }; { H.alt = true; filter = false } ]
  in
  let ms = H.sweep w ~nviews_list:[ 0; 150 ] ~configs in
  Alcotest.(check (list (pair int string)))
    "grid order"
    [ (0, "Alt&Filter"); (0, "Alt&NoFilter"); (150, "Alt&Filter");
      (150, "Alt&NoFilter") ]
    (List.map (fun m -> (M.int m "nviews", M.string m "config")) ms);
  List.iter
    (fun m ->
      let j = M.to_json m in
      List.iter
        (fun path ->
          Alcotest.(check bool) path true
            (J.path (String.split_on_char '.' path) j <> None))
        [ "config"; "alt"; "filter"; "domains"; "wall_time_s";
          "cost_bound_prunes"; "levels"; "phases.analyze.calls";
          "phases.match.p50_s"; "phases.cost.p90_s"; "phases.total.p99_s" ])
    ms

(* The scaling sweep's counters_agree verdict: cells may differ in their
   timings only. *)
let test_counters_agree () =
  let w = Lazy.force mini in
  let m = H.run w ~nviews:150 ~config:{ H.alt = true; filter = true } in
  let set k v (m : M.t) =
    let put = List.map (fun (k', v') -> (k', if k' = k then v else v')) in
    { m with M.params = put m.M.params; metrics = put m.M.metrics }
  in
  let slower =
    set "domains" (J.Int 2)
      (set "wall_time_s" (J.Float (M.float m "wall_time_s" *. 2.0)) m)
  in
  Alcotest.(check bool) "timings may differ" true (H.counters_agree [ m; slower ]);
  Alcotest.(check bool) "candidates may not" false
    (H.counters_agree
       [ m; set "candidates" (J.Int (M.int m "candidates" + 1)) m ]);
  Alcotest.(check bool) "levels may not" false
    (H.counters_agree [ m; { m with M.subs = [ ("levels", []) ] } ])

(* ---- Measure: one record, one encoder, one failure collector ---- *)

let exec_section = lazy (H.exec_bench ~reps:1 ~scale:1 ())

let test_measure_exec_json () =
  let j = M.to_json (Lazy.force exec_section) in
  List.iter
    (fun path ->
      Alcotest.(check bool) path true
        (J.path (String.split_on_char '.' path) j <> None))
    [ "cells"; "nodes"; "equivalent"; "strategies.hash"; "scale" ];
  (match J.path [ "cells" ] j, J.path [ "nodes" ] j with
  | Some (J.List (c0 :: _)), Some (J.List (n0 :: _)) ->
      Alcotest.(check bool) "cells.0.wall_s" true
        (J.member "wall_s" c0 <> None);
      Alcotest.(check bool) "nodes.0.est_rows" true
        (J.member "est_rows" n0 <> None)
  | _ -> Alcotest.fail "cells and nodes must be non-empty lists");
  Alcotest.(check bool) "equivalent holds" true
    (J.member "equivalent" j = Some (J.Bool true))

let test_measure_failures () =
  let cell ok =
    M.make "cell" ~metrics:[ ("wall_s", J.Float 0.1) ]
      ~verdicts:[ ("equivalent", ok) ]
  in
  let section cells =
    M.make "maintenance" ~verdicts:[ ("stats_fresh", true) ]
      ~subs:[ ("cells", cells) ]
  in
  Alcotest.(check (list string)) "every verdict holds" []
    (M.failures (section [ cell true; cell true ]));
  Alcotest.(check (list string)) "nested false verdict named by its path"
    [ "cells.1.equivalent" ]
    (M.failures (section [ cell true; cell false ]));
  Alcotest.(check (list string)) "exec section holds" []
    (M.failures (Lazy.force exec_section))

let test_measure_render_empty () =
  let m =
    M.make "whynot" ~params:[ ("nviews", J.Int 0) ] ~subs:[ ("causes", []) ]
  in
  Alcotest.(check bool) "renders" true (String.length (M.render m) > 0);
  Alcotest.(check bool) "empty list in JSON" true
    (J.member "causes" (M.to_json m) = Some (J.List []))

(* Two entries on one JSON key: an object-valued one (a percentile block)
   merges with the dotted keys under it; any other pair would drop a
   value, so the encoder raises naming the key. *)
let test_measure_key_collisions () =
  let pct = { M.p50_s = 1.0; p90_s = 2.0; p99_s = 3.0 } in
  Alcotest.(check bool) "block and dotted count share one object" true
    (M.to_json
       (M.make "cell"
          ~metrics:[ ("phases.total.calls", J.Int 4) ]
          ~pcts:[ ("phases.total", pct) ])
    = J.Obj
        [
          ( "phases",
            J.Obj
              [
                ( "total",
                  J.Obj
                    [
                      ("calls", J.Int 4);
                      ("p50_s", J.Float 1.0);
                      ("p90_s", J.Float 2.0);
                      ("p99_s", J.Float 3.0);
                    ] );
              ] );
        ]);
  let collides key metrics =
    Alcotest.check_raises key
      (Invalid_argument ("Measure.to_json: colliding values at " ^ key))
      (fun () -> ignore (M.to_json (M.make "s" ~metrics)))
  in
  collides "a" [ ("a", J.Int 1); ("a.b", J.Int 2) ];
  collides "x" [ ("x", J.Int 1); ("x", J.Int 2) ];
  collides "p.q" [ ("p.q", J.Int 1); ("p.r", J.Int 2); ("p.q", J.Int 3) ]

(* Lists nested in list elements render too, titled by path and params. *)
let test_measure_render_nested () =
  let level =
    M.make "level"
      ~params:[ ("level", J.String "hubs") ]
      ~metrics:[ ("in", J.Int 7); ("out", J.Int 3) ]
  in
  let point n =
    M.make "point"
      ~params:[ ("nviews", J.Int n) ]
      ~subs:[ ("plans.default_plan.levels", [ level ]) ]
  in
  let text = M.render (M.make "filter_tree" ~subs:[ ("sweep", [ point 0; point 200 ]) ]) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (Helpers.contains ~needle text))
    [ "sweep (2):"; "sweep.1 nviews=200 plans.default_plan.levels (1):";
      "hubs  7  3" ]

(* ---- Pool.chunk_bounds edge cases ---- *)

module Pool = Mv_experiments.Pool

let bounds = Alcotest.(list (pair int int))

let test_chunk_bounds_edges () =
  Alcotest.(check bounds) "zero items: one empty chunk" [ (0, 0) ]
    (Pool.chunk_bounds ~domains:4 0);
  Alcotest.(check bounds) "one item, many domains" [ (0, 1) ]
    (Pool.chunk_bounds ~domains:4 1);
  Alcotest.(check bounds) "one domain takes everything" [ (0, 5) ]
    (Pool.chunk_bounds ~domains:1 5);
  (* more domains than items: one chunk per item, never an empty chunk *)
  Alcotest.(check bounds) "3 items over 8 domains"
    [ (0, 1); (1, 2); (2, 3) ]
    (Pool.chunk_bounds ~domains:8 3);
  (* a non-dividing split leans the remainder onto the leading chunks *)
  Alcotest.(check bounds) "10 items over 4 domains"
    [ (0, 3); (3, 6); (6, 8); (8, 10) ]
    (Pool.chunk_bounds ~domains:4 10)

(* The invariants behind those examples, swept over a grid: the chunks
   partition [0, n) contiguously and in order, sizes differ by at most
   one, and the chunk count is min(domains, n) (one empty chunk when
   n = 0). Catches the classic lo/hi off-by-one at chunk boundaries. *)
let test_chunk_bounds_invariants () =
  for domains = 1 to 9 do
    for n = 0 to 40 do
      let label fmt = Printf.ksprintf (fun s ->
          Printf.sprintf "d=%d n=%d: %s" domains n s) fmt
      in
      let chunks = Pool.chunk_bounds ~domains n in
      Alcotest.(check int) (label "chunk count")
        (if n = 0 then 1 else min domains n)
        (List.length chunks);
      let sizes = List.map (fun (lo, hi) -> hi - lo) chunks in
      List.iter
        (fun s ->
          Alcotest.(check bool) (label "no negative chunk") true (s >= 0))
        sizes;
      (match (List.sort compare sizes, n) with
      | _, 0 -> ()
      | smallest :: _, _ ->
          let largest = List.fold_left max smallest sizes in
          Alcotest.(check bool) (label "sizes differ by at most one") true
            (largest - smallest <= 1)
      | [], _ -> Alcotest.fail (label "no chunks"));
      (* contiguous partition: starts at 0, each hi is the next lo, ends
         at n *)
      let final =
        List.fold_left
          (fun expected_lo (lo, hi) ->
            Alcotest.(check int) (label "contiguous at %d" lo) expected_lo lo;
            hi)
          0 chunks
      in
      Alcotest.(check int) (label "covers [0, n)") n final
    done
  done

let suite =
  [
    ( "experiments",
      [
        Alcotest.test_case "workload shape" `Quick test_workload_shape;
        Alcotest.test_case "counters consistent" `Quick test_counters_consistent;
        Alcotest.test_case "NoAlt runs the rule, uses no plans" `Quick
          test_noalt_same_invocations_no_plans;
        Alcotest.test_case "filter tree: same result, fewer candidates" `Quick
          test_filter_reduces_candidates;
        Alcotest.test_case "more views, more view plans" `Quick
          test_more_views_more_plans;
        Alcotest.test_case "sweep covers the grid" `Quick test_sweep_covers_grid;
        Alcotest.test_case "counters_agree rejects a counter mismatch" `Quick
          test_counters_agree;
        Alcotest.test_case "Measure JSON of an exec section" `Quick
          test_measure_exec_json;
        Alcotest.test_case "Measure failures name nested verdicts" `Quick
          test_measure_failures;
        Alcotest.test_case "Measure renders a section with no cells" `Quick
          test_measure_render_empty;
        Alcotest.test_case "Measure merges or rejects colliding keys" `Quick
          test_measure_key_collisions;
        Alcotest.test_case "Measure renders lists nested in lists" `Quick
          test_measure_render_nested;
        Alcotest.test_case "chunk_bounds edge cases" `Quick
          test_chunk_bounds_edges;
        Alcotest.test_case "chunk_bounds invariants over a grid" `Quick
          test_chunk_bounds_invariants;
      ] );
  ]
