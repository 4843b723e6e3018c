(** Benchmark driver: regenerates every figure and in-text statistic of the
    paper's evaluation (section 5) plus micro/ablation/filter-tree benches.

      dune exec bench/main.exe                 # everything, default sizes
      dune exec bench/main.exe -- --full       # paper-size (1000 queries)
      dune exec bench/main.exe -- --figure 2   # a single figure
      dune exec bench/main.exe -- --micro      # bechamel micro suite only
      dune exec bench/main.exe -- --filtertree # per-level pruning breakdown
      dune exec bench/main.exe -- --exec       # end-to-end execution bench
      dune exec bench/main.exe -- --quick --json BENCH_optimize.json

    [--json FILE] additionally dumps every measurement (per-config wall and
    CPU timings, rule counters, per-filter-tree-level candidate flow) as a
    JSON document — the BENCH_*.json perf trajectory. With [--json] and no
    explicit selection the slow micro/ablation benches are skipped.

    See EXPERIMENTS.md for paper-vs-measured discussion and the schema. *)

let usage () =
  print_endline
    "usage: main.exe [--full|--quick] [--figure N] [--stats] [--micro]\n\
    \       [--ablation] [--filtertree] [--levels] [--serving] [--serve]\n\
    \       [--whynot] [--exec] [--maintain] [--advise] [--json FILE]\n\
    \       [--domains N] [--passes N] [--queries N] [--max-views N] [--step N]\n\
    \       [--rate QPS] [--duration S] [--serve-trace FILE]\n\
    \       [--serve-advise N]\n\
    \       [--scales S1,S2,...] [--reps N] [--batches N]\n\
    \       [--maintain-views S1,S2,...] [--batch-rows S1,S2,...]\n\
    \       [--advise-candidates S1,S2,...] [--advise-trials N]\n\
    \       [--advise-budget FRAC]";
  exit 1

type what = {
  figures : int list;
  stats : bool;
  micro : bool;
  ablation : bool;
  filtertree : bool;
  levels : bool;
  scaling : bool;
  serving : bool;
  serve : bool;
  whynot : bool;
  exec : bool;
  maintain : bool;
  advise : bool;
}

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let queries = ref 200 in
  let max_views = ref 1000 in
  let step = ref 200 in
  let domains = ref 1 in
  let passes = ref 3 in
  let json_file = ref None in
  let sel = ref None in
  let add_sel w =
    let cur =
      match !sel with
      | Some s -> s
      | None ->
          {
            figures = [];
            stats = false;
            micro = false;
            ablation = false;
            filtertree = false;
            levels = false;
            scaling = false;
            serving = false;
            serve = false;
            whynot = false;
            exec = false;
            maintain = false;
            advise = false;
          }
    in
    sel := Some (w cur)
  in
  let exec_scales = ref [ 1; 2; 4 ] in
  let exec_reps = ref 5 in
  let batches = ref 10 in
  let maintain_views = ref [ 10; 50; 100 ] in
  let batch_rows = ref [ 4; 32 ] in
  let advise_candidates = ref [ 100; 1000 ] in
  let advise_trials = ref 5 in
  let advise_budget = ref 0.05 in
  let rate = ref Mv_experiments.Serve.default_cfg.Mv_experiments.Serve.rate in
  let duration =
    ref Mv_experiments.Serve.default_cfg.Mv_experiments.Serve.duration
  in
  let serve_trace = ref None in
  let serve_advise = ref 4 in
  let rec parse = function
    | [] -> ()
    | "--full" :: rest ->
        queries := 1000;
        max_views := 1000;
        step := 100;
        parse rest
    | "--quick" :: rest ->
        queries := 50;
        max_views := 400;
        step := 200;
        parse rest
    | "--figure" :: n :: rest ->
        add_sel (fun s -> { s with figures = int_of_string n :: s.figures });
        parse rest
    | "--stats" :: rest ->
        add_sel (fun s -> { s with stats = true });
        parse rest
    | "--micro" :: rest ->
        add_sel (fun s -> { s with micro = true });
        parse rest
    | "--ablation" :: rest ->
        add_sel (fun s -> { s with ablation = true });
        parse rest
    | "--filtertree" :: rest ->
        add_sel (fun s -> { s with filtertree = true });
        parse rest
    | "--levels" :: rest ->
        add_sel (fun s -> { s with levels = true });
        parse rest
    | "--scaling" :: rest ->
        add_sel (fun s -> { s with scaling = true });
        parse rest
    | "--serving" :: rest ->
        add_sel (fun s -> { s with serving = true });
        parse rest
    | "--serve" :: rest ->
        add_sel (fun s -> { s with serve = true });
        parse rest
    | "--rate" :: r :: rest ->
        rate := float_of_string r;
        parse rest
    | "--duration" :: s :: rest ->
        duration := max 0.05 (float_of_string s);
        parse rest
    | "--serve-trace" :: f :: rest ->
        serve_trace := Some f;
        parse rest
    | "--serve-advise" :: n :: rest ->
        serve_advise := max 0 (int_of_string n);
        parse rest
    | "--whynot" :: rest ->
        add_sel (fun s -> { s with whynot = true });
        parse rest
    | "--exec" :: rest ->
        add_sel (fun s -> { s with exec = true });
        parse rest
    | "--maintain" :: rest ->
        add_sel (fun s -> { s with maintain = true });
        parse rest
    | "--advise" :: rest ->
        add_sel (fun s -> { s with advise = true });
        parse rest
    | "--advise-candidates" :: s :: rest ->
        advise_candidates :=
          List.map int_of_string (String.split_on_char ',' s);
        parse rest
    | "--advise-trials" :: n :: rest ->
        advise_trials := max 1 (int_of_string n);
        parse rest
    | "--advise-budget" :: f :: rest ->
        advise_budget := float_of_string f;
        parse rest
    | "--batches" :: n :: rest ->
        batches := max 1 (int_of_string n);
        parse rest
    | "--maintain-views" :: s :: rest ->
        maintain_views :=
          List.map int_of_string (String.split_on_char ',' s);
        parse rest
    | "--batch-rows" :: s :: rest ->
        batch_rows := List.map int_of_string (String.split_on_char ',' s);
        parse rest
    | "--scales" :: s :: rest ->
        exec_scales :=
          List.map int_of_string (String.split_on_char ',' s);
        parse rest
    | "--reps" :: n :: rest ->
        exec_reps := max 1 (int_of_string n);
        parse rest
    | "--passes" :: n :: rest ->
        passes := max 1 (int_of_string n);
        parse rest
    | "--domains" :: n :: rest ->
        domains := max 1 (int_of_string n);
        parse rest
    | "--json" :: f :: rest ->
        json_file := Some f;
        parse rest
    | "--queries" :: n :: rest ->
        queries := int_of_string n;
        parse rest
    | "--max-views" :: n :: rest ->
        max_views := int_of_string n;
        parse rest
    | "--step" :: n :: rest ->
        step := int_of_string n;
        parse rest
    | _ -> usage ()
  in
  parse args;
  let what =
    match !sel with
    | Some s -> s
    | None ->
        if !json_file <> None then
          (* machine-readable run: everything measurable, nothing slow *)
          {
            figures = [ 2; 3; 4 ];
            stats = true;
            micro = false;
            ablation = false;
            filtertree = true;
            levels = true;
            scaling = true;
            serving = true;
            serve = true;
            whynot = true;
            exec = true;
            maintain = true;
            advise = true;
          }
        else
          {
            figures = [ 2; 3; 4 ];
            stats = true;
            micro = true;
            ablation = true;
            filtertree = true;
            levels = true;
            scaling = false;
            serving = true;
            serve = true;
            whynot = true;
            exec = true;
            maintain = true;
            advise = true;
          }
  in
  let nviews_list =
    let rec go n acc = if n > !max_views then List.rev acc else go (n + !step) (n :: acc) in
    go 0 []
  in
  let module J = Mv_obs.Json in
  let json_sections = ref [] in
  let add_section name j = json_sections := (name, j) :: !json_sections in
  let need_sweep = what.figures <> [] || what.stats || what.ablation || what.levels in
  let need_workload =
    need_sweep || what.filtertree || what.scaling || what.serving
    || what.serve || what.whynot
  in
  let w =
    if need_workload then begin
      Printf.printf
        "Workload: %d randomly generated views, %d queries (section 5 recipe),\n\
         TPC-H statistics at SF 0.5; view counts %s.\n"
        !max_views !queries
        (String.concat "," (List.map string_of_int nviews_list));
      Some
        (Mv_experiments.Harness.make_workload ~nviews:!max_views
           ~nqueries:!queries ())
    end
    else None
  in
  if need_sweep then begin
    let w = Option.get w in
    let needed_configs =
      if what.figures = [ 3 ] || what.figures = [ 4 ] then
        [ { Mv_experiments.Harness.alt = true; filter = true } ]
      else Mv_experiments.Harness.all_configs
    in
    let ms =
      Mv_experiments.Harness.sweep ~domains:!domains w ~nviews_list
        ~configs:needed_configs
    in
    if List.mem 2 what.figures then Mv_experiments.Report.figure2 ms nviews_list;
    if List.mem 3 what.figures then Mv_experiments.Report.figure3 ms nviews_list;
    if List.mem 4 what.figures then Mv_experiments.Report.figure4 ms nviews_list;
    if what.stats then Mv_experiments.Report.stats_table ms nviews_list;
    if what.levels then Mv_experiments.Report.level_table ms nviews_list;
    if what.ablation then Ablation.run w nviews_list;
    add_section "measurements" (Mv_experiments.Report.measurements_json ms)
  end;
  if what.scaling then begin
    (* the multicore sweep: 1/2/4 domains (plus --domains N if beyond),
       full population, one shared registry *)
    let domains_list =
      List.sort_uniq compare (!domains :: [ 1; 2; 4 ])
    in
    let ms =
      Mv_experiments.Harness.scaling (Option.get w) ~nviews:!max_views
        ~domains_list
    in
    Mv_experiments.Report.scaling_table ms;
    add_section "scaling" (Mv_experiments.Report.scaling_json ms)
  end;
  if what.serving then begin
    (* repeated-query serving through the match/plan cache: cold pass,
       --passes warm passes, then a drop and a re-add (epoch churn) *)
    let m =
      Mv_experiments.Harness.serving ~domains:!domains ~passes:!passes
        (Option.get w) ~nviews:!max_views
    in
    Mv_experiments.Report.serving_table m;
    add_section "serving" (Mv_experiments.Report.serving_json m);
    if
      not
        (m.Mv_experiments.Harness.warm_identical
        && m.Mv_experiments.Harness.churn_consistent
        && m.Mv_experiments.Harness.churn_no_stale)
    then begin
      prerr_endline "serving benchmark: cache served a wrong or stale plan";
      exit 3
    end
  end;
  if what.serve then begin
    (* the serving front end: an open-loop query stream over OCaml 5
       domains against RCU registry snapshots, with add/drop churn; the
       sampled observations are replayed sequentially (exit 3 on any
       unexplainable observation) *)
    let module S = Mv_experiments.Serve in
    let cfg =
      {
        S.default_cfg with
        S.nviews = !max_views;
        domains = !domains;
        rate = !rate;
        duration = !duration;
        advise = !serve_advise;
      }
    in
    let m = S.run ~cfg (Option.get w) in
    Mv_experiments.Report.serve_table m;
    add_section "serving_throughput" (Mv_experiments.Report.serve_json m);
    (match !serve_trace with
    | None -> ()
    | Some file ->
        (* one traced cold submission through a fresh front: the Perfetto
           serve-phase artifact CI uploads *)
        let w = Option.get w in
        let registry = Mv_core.Registry.create w.Mv_experiments.Harness.schema in
        List.iter
          (Mv_core.Registry.add_prebuilt registry)
          (Mv_experiments.Harness.take (min 50 !max_views)
             w.Mv_experiments.Harness.views);
        let f =
          Mv_experiments.Serve.front registry w.Mv_experiments.Harness.stats
        in
        let col = Mv_obs.Span.create () in
        ignore
          (Mv_experiments.Serve.submit_traced f ~spans:(Mv_obs.Span.root col)
             (List.hd w.Mv_experiments.Harness.queries));
        Mv_experiments.Report.write_json file
          (Mv_obs.Span.to_trace_event_json col);
        Printf.printf "wrote %s\n" file);
    if not m.S.sv_consistent then begin
      prerr_endline
        "serving throughput: an observation is not explainable by any \
         registry state";
      exit 3
    end;
    if m.S.sv_dead <> [] then begin
      Printf.eprintf
        "serving throughput: advised view(s) never matched during the run \
         (dead-view gate): %s\n"
        (String.concat ", " m.S.sv_dead);
      exit 3
    end
  end;
  if what.whynot then begin
    (* aggregate rejection provenance: every (query, view) pair of the
       workload attributed to matched / a filter-tree stage / a matcher
       rejection label, via Registry.explain *)
    let w = Option.get w in
    let nq = List.length w.Mv_experiments.Harness.queries in
    let causes = Mv_experiments.Harness.whynot w ~nviews:!max_views in
    Mv_experiments.Report.whynot_table ~nviews:!max_views ~nqueries:nq causes;
    add_section "whynot"
      (Mv_experiments.Report.whynot_json ~nviews:!max_views ~nqueries:nq
         causes)
  end;
  if what.exec then begin
    (* the end-to-end execution benchmark: TPC-H-style data at growing
       scales, hand-written views, the four (rewrite x adaptive) cells;
       exits 3 if any cell's result is not bag-equal to direct legacy
       execution *)
    let ms =
      List.map
        (fun scale ->
          Mv_experiments.Harness.exec_bench ~reps:!exec_reps ~scale ())
        !exec_scales
    in
    Mv_experiments.Report.exec_table ms;
    add_section "exec" (Mv_experiments.Report.exec_json ms);
    if
      not
        (List.for_all
           (fun m -> m.Mv_experiments.Harness.x_equivalent)
           ms)
    then begin
      prerr_endline
        "execution benchmark: a plan's result is not bag-equal to direct \
         execution";
      exit 3
    end
  end;
  if what.maintain then begin
    (* incremental view maintenance vs rematerialize-on-write: identical
       random batches through both arms per (view count, batch size) cell;
       exits 3 unless the maintained contents stay bag-equal and every
       refreshed view statistics entry equals a rebuild from the contents *)
    let m =
      Mv_experiments.Harness.maintain ~batches:!batches
        ~nviews_list:!maintain_views ~batch_sizes:!batch_rows ()
    in
    Mv_experiments.Report.maintenance_table m;
    add_section "maintenance" (Mv_experiments.Report.maintenance_json m);
    (* the per-window obs timeline the sampler domain collected over the
       maintenance grid, surfaced top-level so json_check --require can pin
       it without reading into the maintenance section *)
    add_section "timeline" m.Mv_experiments.Harness.mm_timeline;
    if
      not
        (m.Mv_experiments.Harness.mm_equivalent
        && m.Mv_experiments.Harness.mm_stats_fresh)
    then begin
      prerr_endline
        "maintenance benchmark: delta-maintained contents or statistics \
         diverged from rematerialization";
      exit 3
    end
  end;
  if what.advise then begin
    (* the view advisor: mine candidates from a generated workload, select
       under a storage budget, compare against random-equal-budget sets on
       real optimizer cost; exits 3 if the advised set ever loses or blows
       the budget — the comparison is purely model-cost-driven, so the
       verdict is deterministic for fixed arguments *)
    let ms =
      List.map
        (fun candidates ->
          let nqueries = max 16 (candidates / 8) in
          Mv_experiments.Harness.advise ~trials:!advise_trials
            ~budget_frac:!advise_budget ~candidates ~nqueries ())
        !advise_candidates
    in
    Mv_experiments.Report.advise_table ms;
    add_section "advise" (Mv_experiments.Report.advise_json ms);
    if
      not
        (List.for_all
           (fun m ->
             m.Mv_experiments.Harness.a_beats_random
             && m.Mv_experiments.Harness.a_within_budget)
           ms)
    then begin
      prerr_endline
        "advisor benchmark: an advised view set lost to a random \
         equal-budget set or exceeded the budget";
      exit 3
    end
  end;
  if what.filtertree then
    add_section "filter_tree"
      (Filtertree.run ~domains:!domains (Option.get w) nviews_list);
  if what.micro then Micro.run ();
  match !json_file with
  | None -> ()
  | Some file ->
      let doc =
        J.Obj
          (("benchmark", J.String "mview")
          :: ("args", J.List (List.map (fun a -> J.String a) args))
          :: ( "params",
               J.Obj
                 [
                   ("queries", J.Int !queries);
                   ("max_views", J.Int !max_views);
                   ("step", J.Int !step);
                   ( "nviews_list",
                     J.List (List.map (fun n -> J.Int n) nviews_list) );
                 ] )
          :: List.rev !json_sections)
      in
      Mv_experiments.Report.write_json file doc;
      Printf.printf "\nwrote %s\n" file
