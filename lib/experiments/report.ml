(** Formatting of the paper's figures and in-text statistics from sweep
    measurements. Every printer states what the paper reported so the
    output reads as paper-vs-measured. *)

let pr fmt = Printf.printf fmt

let find ms ~nviews ~config =
  List.find_opt
    (fun (m : Harness.measurement) ->
      m.Harness.nviews = nviews && m.Harness.config = config)
    ms

let configs_ordered =
  [
    { Harness.alt = true; filter = true };
    { Harness.alt = false; filter = true };
    { Harness.alt = true; filter = false };
    { Harness.alt = false; filter = false };
  ]

(* Figure 2: total optimization time vs number of views, four curves. *)
let figure2 (ms : Harness.measurement list) nviews_list =
  pr "\n== Figure 2: optimization time vs number of views ==\n";
  pr "paper: optimization time grows linearly; with the filter tree the\n";
  pr "increase at 1000 views is ~60%%, without it ~110%%.\n\n";
  pr "(wall-clock seconds; the paper reports elapsed time)\n";
  pr "%8s" "views";
  List.iter
    (fun c -> pr " %14s" (Harness.config_name c))
    configs_ordered;
  pr "\n";
  List.iter
    (fun n ->
      pr "%8d" n;
      List.iter
        (fun c ->
          match find ms ~nviews:n ~config:c with
          | Some m -> pr " %13.3fs" m.Harness.wall_time
          | None -> pr " %14s" "-")
        configs_ordered;
      pr "\n")
    nviews_list;
  (* headline ratios *)
  let base c = find ms ~nviews:0 ~config:c in
  let last c = find ms ~nviews:(List.fold_left max 0 nviews_list) ~config:c in
  let incr c =
    match (base c, last c) with
    | Some b, Some l when b.Harness.wall_time > 0.0 ->
        Some
          ((l.Harness.wall_time -. b.Harness.wall_time)
           /. b.Harness.wall_time *. 100.0)
    | _ -> None
  in
  (match incr { Harness.alt = true; filter = true } with
  | Some pct -> pr "\nincrease with filter tree: %+.0f%% (paper: ~+60%%)\n" pct
  | None -> ());
  match incr { Harness.alt = true; filter = false } with
  | Some pct -> pr "increase without filter tree: %+.0f%% (paper: ~+110%%)\n" pct
  | None -> ()

(* Figure 3: total increase in optimization time vs time spent inside the
   view-matching rule (filter tree enabled, substitutes produced). *)
let figure3 (ms : Harness.measurement list) nviews_list =
  pr "\n== Figure 3: increase in optimization time vs view-matching time ==\n";
  pr "paper: at 1000 views about half of the increase is spent inside the\n";
  pr "view-matching rule; with few views almost all of it is.\n\n";
  let cfg = { Harness.alt = true; filter = true } in
  let base = find ms ~nviews:0 ~config:cfg in
  pr "(wall-clock seconds)\n";
  pr "%8s %16s %18s\n" "views" "total increase" "view-matching time";
  List.iter
    (fun n ->
      match (find ms ~nviews:n ~config:cfg, base) with
      | Some m, Some b ->
          pr "%8d %15.3fs %17.3fs\n" n
            (m.Harness.wall_time -. b.Harness.wall_time)
            m.Harness.rule_wall_time
      | _ -> ())
    nviews_list

(* Figure 4: number of final plans using materialized views. *)
let figure4 (ms : Harness.measurement list) nviews_list =
  pr "\n== Figure 4: final plans using materialized views ==\n";
  pr "paper: ~60%% of queries use a view at 200 views, ~87%% at 1000.\n\n";
  let cfg = { Harness.alt = true; filter = true } in
  pr "%8s %12s %10s\n" "views" "plans w/view" "fraction";
  List.iter
    (fun n ->
      match find ms ~nviews:n ~config:cfg with
      | Some m ->
          pr "%8d %12d %9.0f%%\n" n m.Harness.plans_using_views
            (100.0 *. float_of_int m.Harness.plans_using_views
             /. float_of_int (max 1 m.Harness.queries))
      | None -> ())
    nviews_list

(* The in-text statistics of section 5 (T1-T5 in DESIGN.md). *)
let stats_table (ms : Harness.measurement list) nviews_list =
  pr "\n== In-text statistics (section 5) ==\n";
  pr "paper: candidate set < 0.4%% of views (0.29%% @100, 0.36%% @1000);\n";
  pr "15-20%% of candidates pass full matching; substitutes/invocation\n";
  pr "0.04 @100 -> 0.59 @1000; ~17.8 invocations/query; substitutes/query\n";
  pr "0.7 @100 -> 10.5 @1000.\n\n";
  let cfg = { Harness.alt = true; filter = true } in
  pr "%8s %10s %12s %10s %12s %12s\n" "views" "cand/view" "pass-rate"
    "subs/inv" "inv/query" "subs/query";
  List.iter
    (fun n ->
      if n > 0 then
        match find ms ~nviews:n ~config:cfg with
        | Some m ->
            let fi = float_of_int in
            pr "%8d %9.2f%% %11.1f%% %10.2f %12.1f %12.2f\n" n
              (100.0 *. fi m.Harness.candidates
               /. fi (max 1 m.Harness.invocations)
               /. fi n)
              (100.0 *. fi m.Harness.matched
               /. fi (max 1 m.Harness.candidates))
              (fi m.Harness.substitutes /. fi (max 1 m.Harness.invocations))
              (fi m.Harness.invocations /. fi (max 1 m.Harness.queries))
              (fi m.Harness.substitutes /. fi (max 1 m.Harness.queries))
        | None -> ())
    nviews_list

(* The per-level pruning breakdown behind the in-text candidate fraction:
   how many candidate views entered each filter-tree level and how many
   survived it, summed over the batch (Alt&Filter configuration). *)
let level_table (ms : Harness.measurement list) nviews_list =
  pr "\n== Filter-tree pruning per level ==\n";
  pr "paper: each level is a necessary condition; the candidate set after\n";
  pr "all levels stays below 0.4%% of the view population.\n";
  let cfg = { Harness.alt = true; filter = true } in
  List.iter
    (fun n ->
      if n > 0 then
        match find ms ~nviews:n ~config:cfg with
        | Some m when m.Harness.level_flow <> [] ->
            pr "\n%d views:\n" n;
            pr "  %-28s %12s %12s %9s\n" "level" "entered" "passed" "kept";
            List.iter
              (fun (f : Harness.level_flow) ->
                pr "  %-28s %12d %12d %8.1f%%\n" f.Harness.level
                  f.Harness.entered f.Harness.passed
                  (100.0 *. float_of_int f.Harness.passed
                   /. float_of_int (max 1 f.Harness.entered)))
              m.Harness.level_flow
        | _ -> ())
    nviews_list

(* ---- machine-readable output (the BENCH_*.json trajectory) ---- *)

module J = Mv_obs.Json

let level_flow_json (fs : Harness.level_flow list) =
  J.List
    (List.map
       (fun (f : Harness.level_flow) ->
         J.Obj
           [
             ("level", J.String f.Harness.level);
             ("in", J.Int f.Harness.entered);
             ("out", J.Int f.Harness.passed);
           ])
       fs)

(* One object per phase, keyed by phase name: the percentile leaves carry
   the [_s] suffix json_check's percentile-tolerance compare keys on. *)
let phases_json (ps : Harness.phase_stats list) =
  J.Obj
    (List.map
       (fun (p : Harness.phase_stats) ->
         ( p.Harness.phase,
           J.Obj
             [
               ("calls", J.Int p.Harness.calls);
               ("p50_s", J.Float p.Harness.p50);
               ("p90_s", J.Float p.Harness.p90);
               ("p99_s", J.Float p.Harness.p99);
             ] ))
       ps)

let measurement_json (m : Harness.measurement) =
  J.Obj
    [
      ("config", J.String (Harness.config_name m.Harness.config));
      ("alt", J.Bool m.Harness.config.Harness.alt);
      ("filter", J.Bool m.Harness.config.Harness.filter);
      ("nviews", J.Int m.Harness.nviews);
      ("queries", J.Int m.Harness.queries);
      ("domains", J.Int m.Harness.domains);
      ("wall_time_s", J.Float m.Harness.wall_time);
      ("cpu_time_s", J.Float m.Harness.cpu_time);
      ("rule_wall_time_s", J.Float m.Harness.rule_wall_time);
      ("rule_cpu_time_s", J.Float m.Harness.rule_cpu_time);
      ("invocations", J.Int m.Harness.invocations);
      ("candidates", J.Int m.Harness.candidates);
      ("matched", J.Int m.Harness.matched);
      ("substitutes", J.Int m.Harness.substitutes);
      ("plans_using_views", J.Int m.Harness.plans_using_views);
      ("cost_bound_prunes", J.Int m.Harness.cost_bound_prunes);
      ("levels", level_flow_json m.Harness.level_flow);
      ("phases", phases_json m.Harness.phases);
    ]

let measurements_json (ms : Harness.measurement list) =
  J.List (List.map measurement_json ms)

let write_json file (j : J.t) =
  let oc = open_out file in
  output_string oc (J.to_string j);
  output_char oc '\n';
  close_out oc
