(** Formatting of the paper's figures and in-text statistics from the
    sweep's cells. Every printer states what the paper reported so the
    output reads as paper-vs-measured. *)

let pr fmt = Printf.printf fmt

let find ms ~nviews ~config =
  List.find_opt
    (fun m ->
      Measure.int m "nviews" = nviews
      && Measure.string m "config" = Harness.config_name config)
    ms

let wall m = Measure.float m "wall_time_s"

(* Figure 2: total optimization time vs number of views, four curves. *)
let figure2 (ms : Measure.t list) nviews_list =
  pr "\n== Figure 2: optimization time vs number of views ==\n";
  pr "paper: optimization time grows linearly; with the filter tree the\n";
  pr "increase at 1000 views is ~60%%, without it ~110%%.\n\n";
  pr "(wall-clock seconds; the paper reports elapsed time)\n";
  pr "%8s" "views";
  List.iter
    (fun c -> pr " %14s" (Harness.config_name c))
    Harness.all_configs;
  pr "\n";
  List.iter
    (fun n ->
      pr "%8d" n;
      List.iter
        (fun c ->
          match find ms ~nviews:n ~config:c with
          | Some m -> pr " %13.3fs" (wall m)
          | None -> pr " %14s" "-")
        Harness.all_configs;
      pr "\n")
    nviews_list;
  (* headline ratios *)
  let base c = find ms ~nviews:0 ~config:c in
  let last c = find ms ~nviews:(List.fold_left max 0 nviews_list) ~config:c in
  let incr c =
    match (base c, last c) with
    | Some b, Some l when wall b > 0.0 ->
        Some ((wall l -. wall b) /. wall b *. 100.0)
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
let figure3 (ms : Measure.t list) nviews_list =
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
            (wall m -. wall b)
            (Measure.float m "rule_wall_time_s")
      | _ -> ())
    nviews_list

(* Figure 4: number of final plans using materialized views. *)
let figure4 (ms : Measure.t list) nviews_list =
  pr "\n== Figure 4: final plans using materialized views ==\n";
  pr "paper: ~60%% of queries use a view at 200 views, ~87%% at 1000.\n\n";
  let cfg = { Harness.alt = true; filter = true } in
  pr "%8s %12s %10s\n" "views" "plans w/view" "fraction";
  List.iter
    (fun n ->
      match find ms ~nviews:n ~config:cfg with
      | Some m ->
          let plans = Measure.int m "plans_using_views" in
          pr "%8d %12d %9.0f%%\n" n plans
            (100.0 *. float_of_int plans
             /. float_of_int (max 1 (Measure.int m "queries")))
      | None -> ())
    nviews_list

(* The in-text statistics of section 5 (T1-T5 in DESIGN.md). *)
let stats_table (ms : Measure.t list) nviews_list =
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
            let at_least_1 k = fi (max 1 (Measure.int m k)) in
            let substitutes = fi (Measure.int m "substitutes") in
            pr "%8d %9.2f%% %11.1f%% %10.2f %12.1f %12.2f\n" n
              (100.0 *. fi (Measure.int m "candidates")
               /. at_least_1 "invocations" /. fi n)
              (100.0 *. substitutes /. at_least_1 "candidates")
              (substitutes /. at_least_1 "invocations")
              (fi (Measure.int m "invocations") /. at_least_1 "queries")
              (substitutes /. at_least_1 "queries")
        | None -> ())
    nviews_list

(* The per-level pruning breakdown behind the in-text candidate fraction:
   how many candidate views entered each filter-tree level and how many
   survived it, summed over the batch (Alt&Filter configuration). *)
let level_table (ms : Measure.t list) nviews_list =
  pr "\n== Filter-tree pruning per level ==\n";
  pr "paper: each level is a necessary condition; the candidate set after\n";
  pr "all levels stays below 0.4%% of the view population.\n";
  let cfg = { Harness.alt = true; filter = true } in
  List.iter
    (fun n ->
      if n > 0 then
        match find ms ~nviews:n ~config:cfg with
        | Some { Measure.subs; _ } when List.assoc "levels" subs <> [] ->
            pr "\n%d views:\n" n;
            pr "  %-28s %12s %12s %9s\n" "level" "entered" "passed" "kept";
            List.iter
              (fun l ->
                let entered = Measure.int l "in"
                and passed = Measure.int l "out" in
                pr "  %-28s %12d %12d %8.1f%%\n" (Measure.string l "level")
                  entered passed
                  (100.0 *. float_of_int passed
                   /. float_of_int (max 1 entered)))
              (List.assoc "levels" subs)
        | _ -> ())
    nviews_list

let write_json file (j : Mv_obs.Json.t) =
  let oc = open_out file in
  output_string oc (Mv_obs.Json.to_string j);
  output_char oc '\n';
  close_out oc
