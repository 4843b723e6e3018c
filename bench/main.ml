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

    Every section of the JSON document is one
    {!Mv_experiments.Measure.t} or a list of them (the paper's sweep is
    its list of grid cells). Once all selected sections have run (and the
    JSON is written), main.exe exits 3 if any of their verdicts is false,
    naming each one by its JSON path.

    See EXPERIMENTS.md for paper-vs-measured discussion and the schema. *)

let usage () =
  print_endline
    "usage: main.exe [--full|--quick] [--figure N] [--stats] [--micro]\n\
    \       [--ablation] [--filtertree] [--levels] [--scaling] [--serve]\n\
    \       [--whynot] [--exec] [--maintain] [--advise] [--json FILE]\n\
    \       [--domains N] [--queries N] [--max-views N] [--step N]\n\
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
  let module H = Mv_experiments.Harness in
  let module M = Mv_experiments.Measure in
  let json_sections = ref [] in
  let failed = ref [] in
  (* one Measure section, or a list of them under one key: add the JSON
     and collect the false verdicts as JSON paths *)
  let record key json fails =
    json_sections := (key, json) :: !json_sections;
    failed := !failed @ List.map (fun f -> key ^ "." ^ f) fails
  in
  let one (m : M.t) =
    print_string (M.render m);
    record m.M.section (M.to_json m) (M.failures m)
  in
  let many key (ms : M.t list) =
    List.iter (fun m -> print_string (M.render m)) ms;
    record key
      (J.List (List.map M.to_json ms))
      (List.concat
         (List.mapi
            (fun i m -> List.map (Printf.sprintf "%d.%s" i) (M.failures m))
            ms))
  in
  let need_sweep = what.figures <> [] || what.stats || what.ablation || what.levels in
  let need_workload =
    need_sweep || what.filtertree || what.scaling || what.serve || what.whynot
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
    (* the cells print as the paper's figures and tables above *)
    record "measurements" (J.List (List.map M.to_json ms)) []
  end;
  if what.scaling then
    (* the multicore sweep: 1/2/4 domains (plus --domains N if beyond),
       full population, one shared registry *)
    one
      (H.scaling (Option.get w) ~nviews:!max_views
         ~domains_list:(List.sort_uniq compare (!domains :: [ 1; 2; 4 ])));
  if what.serve then begin
    (* the serving front end: an open-loop query stream over OCaml 5
       domains against RCU registry snapshots, with add/drop churn and
       the sampled observations replayed sequentially; --rate 0 is the
       closed loop *)
    let module S = Mv_experiments.Serve in
    let w = Option.get w in
    one
      (S.run
         ~cfg:
           {
             S.default_cfg with
             S.nviews = !max_views;
             domains = !domains;
             rate = !rate;
             duration = !duration;
             advise = !serve_advise;
           }
         w);
    match !serve_trace with
    | None -> ()
    | Some file ->
        (* one traced cold submission through a fresh front: the Perfetto
           serve-phase artifact CI uploads *)
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
          (Mv_experiments.Serve.submit ~spans:(Mv_obs.Span.root col) f
             (List.hd w.Mv_experiments.Harness.queries));
        Mv_experiments.Report.write_json file
          (Mv_obs.Span.to_trace_event_json col);
        Printf.printf "wrote %s\n" file
  end;
  if what.whynot then begin
    (* aggregate rejection provenance: every (query, view) pair of the
       workload attributed to matched / a filter-tree stage / a matcher
       rejection label, via Registry.explain *)
    let w = Option.get w in
    one
      (M.make "whynot"
         ~params:
           [
             ("nviews", J.Int !max_views);
             ("nqueries", J.Int (List.length w.H.queries));
           ]
         ~subs:
           [
             ( "causes",
               List.map
                 (fun (cause, n) ->
                   M.make "cause"
                     ~params:[ ("cause", J.String cause) ]
                     ~metrics:[ ("pairs", J.Int n) ])
                 (H.whynot w ~nviews:!max_views) );
           ])
  end;
  if what.exec then
    (* the end-to-end execution benchmark: TPC-H-style data at growing
       scales, hand-written views, plans timed without and with rewrites,
       every result bag-checked against direct execution *)
    many "exec"
      (List.map
         (fun scale -> H.exec_bench ~reps:!exec_reps ~scale ())
         !exec_scales);
  if what.maintain then
    (* incremental view maintenance vs rematerialize-on-write: identical
       random batches through both arms per (view count, batch size) cell,
       contents and refreshed statistics checked against rematerialization *)
    one
      (H.maintain ~batches:!batches ~nviews_list:!maintain_views
         ~batch_sizes:!batch_rows ());
  if what.advise then
    (* the view advisor: mine candidates from a generated workload, select
       under a storage budget, compare against random-equal-budget sets on
       real optimizer cost — model-cost-driven, so the verdicts are
       deterministic for fixed arguments *)
    many "advise"
      (List.map
         (fun candidates ->
           H.advise ~trials:!advise_trials ~budget_frac:!advise_budget
             ~candidates ~nqueries:(max 16 (candidates / 8)) ())
         !advise_candidates);
  if what.filtertree then
    one (Filtertree.run ~domains:!domains (Option.get w) nviews_list);
  if what.micro then Micro.run ();
  (match !json_file with
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
      Printf.printf "\nwrote %s\n" file);
  if !failed <> [] then begin
    Printf.eprintf "bench: verdict(s) failed: %s\n"
      (String.concat ", " !failed);
    exit 3
  end
