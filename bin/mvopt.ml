(** mvopt — command-line front end to the view-matching library.

    Subcommands:
      parse    parse a statement and print its normalized SPJG form
      match    match a query against one or more view definitions
      explain  optimize a query against registered views, print the plan
               (--trace / --trace-out FILE record the optimization as a
               span tree, exportable as Chrome/Perfetto trace_event JSON)
      why-not  explain why a specific view was not used for a query: the
               exact filter-tree stage that pruned it or the matcher's
               rejection reason
      top      run a ledger-observed workload and print the per-view health
               table (times candidate/matched/chosen, estimated benefit,
               maintenance seconds) sorted by net benefit, dead views flagged
      metrics  the same run exported in OpenMetrics text format: obs
               counters/histograms, the per-view ledger and the
               timeline windows
      refresh  demonstrate incremental maintenance: materialize a view,
               keep it current under write batches (Ivm.apply), and check
               its contents against recomputation
      demo     a self-contained end-to-end demonstration
      generate print a random section-5 workload
      advise   mine view candidates from a generated workload, select a set
               under a storage budget (greedy + local-search with a
               maintenance-cost term), register the picks, and report
               workload cost before/after

    All commands run against the built-in TPC-H catalog. Statements can be
    given inline or in files (one statement per file). The experiments
    (batch optimization over domains, serving, caching) are driven by
    bench/main.exe. *)

open Cmdliner

let schema = Mv_tpch.Schema.schema

let read_arg s =
  if Sys.file_exists s then (
    let ic = open_in s in
    let n = in_channel_length ic in
    let b = really_input_string ic n in
    close_in ic;
    b)
  else s

(* Every registry/metrics JSON dump below goes through
   [Mv_obs.Export.registry_json], so all subcommands emit the one schema:
   {"metrics": <obs registry>, "timeline"?: ..., "health": ...}. *)
let dump_registry ?timeline ~health obs file =
  Mv_experiments.Report.write_json file
    (Mv_obs.Export.registry_json ?timeline
       ~extra:[ ("health", Mv_core.Health.to_json health) ]
       obs);
  Printf.printf "wrote %s\n" file

(* ---- parse ---- *)

let parse_cmd =
  let stmt =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"STATEMENT" ~doc:"SQL text or a file containing it.")
  in
  let run stmt =
    let src = read_arg stmt in
    match Mv_sql.Parser.parse_statement schema src with
    | `Query q ->
        Printf.printf "-- normalized query block\n%s\n" (Mv_relalg.Spjg.to_sql q)
    | `View (name, v) ->
        Printf.printf "-- view %s\n%s\n" name (Mv_relalg.Spjg.to_sql v);
        (match Mv_relalg.Spjg.check_indexable v with
        | Ok () -> print_endline "-- indexable: yes"
        | Error e -> Printf.printf "-- indexable: no (%s)\n" e)
    | exception Mv_sql.Parser.Parse_error e ->
        Printf.eprintf "parse error: %s\n" e;
        exit 1
    | exception Mv_sql.Lexer.Lex_error e ->
        Printf.eprintf "lex error: %s\n" e;
        exit 1
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse a statement and print its normalized form")
    Term.(const run $ stmt)

(* ---- match ---- *)

let match_cmd =
  let views =
    Arg.(
      non_empty & opt_all string []
      & info [ "v"; "view" ] ~docv:"VIEW"
          ~doc:"CREATE VIEW statement (or file). Repeatable.")
  in
  let query =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"QUERY" ~doc:"SELECT statement (or file).")
  in
  let relaxed =
    Arg.(
      value & flag
      & info [ "relaxed-nulls" ]
          ~doc:"Enable the null-rejecting foreign-key relaxation (section 3.2).")
  in
  let backjoins =
    Arg.(
      value & flag
      & info [ "backjoins" ]
          ~doc:"Enable base-table backjoins for missing columns (section 7).")
  in
  let run views query relaxed backjoins =
    let registry =
      Mv_core.Registry.create ~relaxed_nulls:relaxed ~backjoins schema
    in
    List.iter
      (fun v ->
        let name, spjg = Mv_sql.Parser.parse_view schema (read_arg v) in
        ignore (Mv_core.Registry.add_view registry ~name spjg))
      views;
    let q = Mv_sql.Parser.parse_query schema (read_arg query) in
    let qa = Mv_relalg.Analysis.analyze schema q in
    let any = ref false in
    List.iter
      (fun view ->
        match
          Mv_core.Matcher.match_view ~relaxed_nulls:relaxed ~backjoins
            ~query:qa view
        with
        | Ok s ->
            any := true;
            Printf.printf "view %s: MATCH\n%s\n\n" view.Mv_core.View.name
              (Mv_core.Substitute.to_sql s)
        | Error r ->
            Printf.printf "view %s: rejected (%s)\n\n" view.Mv_core.View.name
              (Mv_core.Reject.to_string r))
      (Mv_core.Registry.snapshot registry).Mv_core.Registry.snap_views;
    if not !any then exit 2
  in
  Cmd.v
    (Cmd.info "match"
       ~doc:"Match a query against view definitions and print substitutes")
    Term.(const run $ views $ query $ relaxed $ backjoins)

(* ---- explain ---- *)

let explain_cmd =
  let views =
    Arg.(
      value & opt_all string []
      & info [ "v"; "view" ] ~docv:"VIEW" ~doc:"CREATE VIEW statement (or file).")
  in
  let query =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"QUERY" ~doc:"SELECT statement (or file).")
  in
  let execute =
    Arg.(
      value & flag
      & info [ "execute" ]
          ~doc:"Also generate a small database, run the plan, and verify it \
                against direct execution.")
  in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "After optimizing, print the metrics table (rule counters, \
             filter-tree per-level candidate flow, optimizer memo \
             counters).")
  in
  let trace_flag =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Record the optimization as a hierarchical span tree (analysis, \
             filter-tree stages, per-view match attempts with rejection \
             reasons, costing) and print it.")
  in
  let trace_out =
    Arg.(
      value & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write the span tree as Chrome/Perfetto trace_event JSON to \
             $(docv) (open in ui.perfetto.dev or chrome://tracing). Implies \
             span recording.")
  in
  let json_file =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Dump the obs registry (rule/filter-tree/optimizer instruments) \
             and the per-view health ledger as JSON — the same schema every \
             other subcommand's --json emits.")
  in
  let run views query execute show_stats trace trace_out json_file =
    let registry = Mv_core.Registry.create schema in
    let stats = Mv_tpch.Datagen.synthetic_stats () in
    List.iter
      (fun v ->
        let name, spjg = Mv_sql.Parser.parse_view schema (read_arg v) in
        ignore
          (Mv_core.Registry.add_view registry ~name
             ~row_count:(Mv_opt.Cost.estimate_view_rows stats spjg)
             spjg))
      views;
    let q = Mv_sql.Parser.parse_query schema (read_arg query) in
    let collector =
      if trace || trace_out <> None then Some (Mv_obs.Span.create ()) else None
    in
    let spans = Option.map Mv_obs.Span.root collector in
    let r = Mv_opt.Optimizer.optimize ?spans registry stats q in
    Printf.printf "estimated cost: %.0f, estimated rows: %.0f\n"
      r.Mv_opt.Optimizer.cost r.Mv_opt.Optimizer.rows;
    Printf.printf "plan:\n%s" (Mv_opt.Plan.to_string r.Mv_opt.Optimizer.plan);
    Printf.printf "uses materialized views: %b (%s)\n"
      r.Mv_opt.Optimizer.used_views
      (String.concat "," (Mv_opt.Plan.views_used r.Mv_opt.Optimizer.plan));
    if execute then begin
      let db = Mv_tpch.Datagen.generate ~seed:1 ~scale:2 () in
      let exec_stats = Mv_engine.Database.stats db in
      let direct = Mv_engine.Exec.execute db q in
      let via, reports =
        Mv_opt.Plan_exec.execute_report ~stats:exec_stats db q
          r.Mv_opt.Optimizer.plan
      in
      Printf.printf "\nexecution check: %d rows, plan matches direct: %b\n"
        (Mv_engine.Relation.cardinality direct)
        (Mv_engine.Relation.same_bag direct via);
      Printf.printf "%-44s %-10s %12s %9s\n" "node" "strategy" "est rows"
        "actual";
      List.iter
        (fun (n : Mv_opt.Plan_exec.node_report) ->
          Printf.printf "%-44s %-10s %12.1f %9d\n" n.Mv_opt.Plan_exec.nr_label
            n.Mv_opt.Plan_exec.nr_strategy n.Mv_opt.Plan_exec.nr_est
            n.Mv_opt.Plan_exec.nr_actual)
        reports
    end;
    if show_stats then begin
      print_newline ();
      print_string (Mv_obs.Registry.render registry.Mv_core.Registry.obs)
    end;
    (match json_file with
    | None -> ()
    | Some file ->
        dump_registry ~health:registry.Mv_core.Registry.health
          registry.Mv_core.Registry.obs file);
    match collector with
    | None -> ()
    | Some col ->
        if trace then begin
          print_newline ();
          print_string (Mv_obs.Span.render col)
        end;
        (match trace_out with
        | None -> ()
        | Some file ->
            Mv_experiments.Report.write_json file
              (Mv_obs.Span.to_trace_event_json col);
            Printf.printf "wrote %s\n" file)
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Optimize a query against views; print the plan")
    Term.(
      const run $ views $ query $ execute $ stats_flag $ trace_flag $ trace_out
      $ json_file)

(* ---- why-not ---- *)

let whynot_cmd =
  let views =
    Arg.(
      non_empty & opt_all string []
      & info [ "v"; "view" ] ~docv:"VIEW"
          ~doc:"CREATE VIEW statement (or file). Repeatable.")
  in
  let query =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"QUERY" ~doc:"SELECT statement (or file).")
  in
  let target =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"VIEW-NAME"
          ~doc:"Name of the registered view to explain.")
  in
  let run views query target =
    let registry = Mv_core.Registry.create schema in
    let stats = Mv_tpch.Datagen.synthetic_stats () in
    List.iter
      (fun v ->
        let name, spjg = Mv_sql.Parser.parse_view schema (read_arg v) in
        ignore
          (Mv_core.Registry.add_view registry ~name
             ~row_count:(Mv_opt.Cost.estimate_view_rows stats spjg)
             spjg))
      views;
    if Mv_core.Registry.find_view registry target = None then begin
      Printf.eprintf "unknown view %s (registered: %s)\n" target
        (String.concat ", "
           (List.map
              (fun v -> v.Mv_core.View.name)
              (Mv_core.Registry.snapshot registry)
                .Mv_core.Registry.snap_views));
      exit 1
    end;
    let q = Mv_sql.Parser.parse_query schema (read_arg query) in
    let qa = Mv_relalg.Analysis.analyze schema q in
    let _, expl =
      List.find
        (fun (v, _) -> v.Mv_core.View.name = target)
        (Mv_core.Registry.explain registry qa)
    in
    match expl with
    | Mv_core.Registry.Filtered stage ->
        Printf.printf
          "view %s cannot answer the query: pruned by the filter tree at the \
           %s stage\n"
          target
          (Mv_core.Filter_tree.stage_name stage);
        exit 2
    | Mv_core.Registry.Rejected r ->
        Printf.printf
          "view %s survived the filter tree but failed matching: %s (%s)\n"
          target
          (Mv_core.Reject.label r)
          (Mv_core.Reject.to_string r);
        exit 2
    | Mv_core.Registry.Matched s ->
        Printf.printf "view %s CAN answer the query; substitute:\n%s\n" target
          (Mv_core.Substitute.to_sql s);
        let r = Mv_opt.Optimizer.optimize registry stats q in
        let used = Mv_opt.Plan.views_used r.Mv_opt.Optimizer.plan in
        if List.mem target used then
          print_endline "the optimizer's final plan uses it"
        else
          Printf.printf
            "but the optimizer's final plan does not use it (cost %.0f, uses: \
             %s)\n"
            r.Mv_opt.Optimizer.cost
            (match used with [] -> "no views" | vs -> String.concat "," vs)
  in
  Cmd.v
    (Cmd.info "why-not"
       ~doc:
         "Explain why a specific view was (or was not) used for a query: the \
          exact filter-tree stage that pruned it, the matcher's rejection \
          reason, or its substitute and the final plan's verdict")
    Term.(const run $ views $ query $ target)

(* ---- generate ---- *)

let generate_cmd =
  let n =
    Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc:"How many statements.")
  in
  let kind =
    Arg.(
      value
      & opt (enum [ ("views", `Views); ("queries", `Queries) ]) `Views
      & info [ "kind" ] ~doc:"What to generate: views or queries.")
  in
  let seed =
    Arg.(value & opt int 1001 & info [ "seed" ] ~doc:"PRNG seed.")
  in
  let run n kind seed =
    let stats = Mv_tpch.Datagen.synthetic_stats () in
    match kind with
    | `Views ->
        List.iter
          (fun (name, v) ->
            Printf.printf "create view %s with schemabinding as\n%s\n\n" name
              (Mv_relalg.Spjg.to_sql v))
          (Mv_workload.Generator.views ~seed schema stats n)
    | `Queries ->
        List.iter
          (fun q -> Printf.printf "%s\n\n" (Mv_relalg.Spjg.to_sql q))
          (Mv_workload.Generator.queries ~seed schema stats n)
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Print a random section-5 workload (views or queries)")
    Term.(const run $ n $ kind $ seed)

(* ---- advise ---- *)

let advise_cmd =
  let queries =
    Arg.(
      value & opt int 40
      & info [ "queries" ] ~docv:"N" ~doc:"Workload query batch size.")
  in
  let candidates =
    Arg.(
      value & opt int 200
      & info [ "candidates" ] ~docv:"N"
          ~doc:"Cap on the mined candidate pool offered to the selector.")
  in
  let budget =
    Arg.(
      value & opt float 0.05
      & info [ "budget" ] ~docv:"FRAC"
          ~doc:
            "Storage budget as a fraction of the candidate pool's total \
             estimated size.")
  in
  let seed =
    Arg.(value & opt int 2002 & info [ "seed" ] ~doc:"Workload PRNG seed.")
  in
  let write_fraction =
    Arg.(
      value & opt float 0.1
      & info [ "write-fraction" ] ~docv:"F"
          ~doc:
            "Maintenance events per workload query: higher values penalize \
             wide views through the maintenance-cost term.")
  in
  let from_ledger =
    Arg.(
      value & flag
      & info [ "from-ledger" ]
          ~doc:
            "Re-price the candidates with observed per-query frequencies: a \
             skewed trace of the workload is optimized first so the \
             registry's health ledger records how often each query actually \
             arrives, then selection runs once uniformly and once with the \
             ledger frequencies as weights, and both selections are costed \
             with the real optimizer on the observed trace. Exits 3 if the \
             ledger-driven selection loses to the uniform one or breaks the \
             budget.")
  in
  let run nqueries candidates budget_frac seed write_fraction from_ledger =
    let stats = Mv_tpch.Datagen.synthetic_stats () in
    let qs = Mv_workload.Generator.queries ~seed schema stats nqueries in
    let mined = Mv_workload.Miner.mine qs in
    let defs =
      List.filteri (fun i _ -> i < candidates) (Mv_workload.Miner.definitions mined)
    in
    Printf.printf "mined %d candidates from %d queries (offering %d)\n"
      (List.length mined) nqueries (List.length defs);
    let total_size =
      List.fold_left
        (fun acc (name, spjg) ->
          acc
          +. float_of_int (Mv_opt.Cost.estimate_view_rows ~name stats spjg))
        0.0 defs
    in
    let config =
      {
        Mv_opt.Advisor.default_config with
        budget = budget_frac *. total_size;
        write_fraction;
      }
    in
    let print_picks (advice : Mv_opt.Advisor.advice) =
      Printf.printf
        "budget %.0f rows (%.0f%% of pool), %d considered, %d rejected\n\n"
        config.Mv_opt.Advisor.budget (100.0 *. budget_frac)
        advice.Mv_opt.Advisor.considered advice.Mv_opt.Advisor.rejected;
      Printf.printf "%-9s %10s %12s %12s  definition\n" "pick" "rows" "benefit"
        "maint";
      List.iter
        (fun (p : Mv_opt.Advisor.pick) ->
          let sql = Mv_relalg.Spjg.to_sql p.Mv_opt.Advisor.spjg in
          let first_line =
            match String.index_opt sql '\n' with
            | Some i -> String.sub sql 0 i ^ " ..."
            | None -> sql
          in
          Printf.printf "%-9s %10d %12.0f %12.0f  %s\n" p.Mv_opt.Advisor.name
            p.Mv_opt.Advisor.rows p.Mv_opt.Advisor.benefit
            p.Mv_opt.Advisor.maint first_line)
        advice.Mv_opt.Advisor.picks
    in
    let advice =
      Mv_opt.Advisor.advise ~config schema stats ~candidates:defs ~queries:qs
    in
    if not from_ledger then begin
      print_picks advice;
      (* register the picks through the dynamic registry and verify the
         modeled improvement against the real optimizer *)
      let registry = Mv_core.Registry.create schema in
      let total reg =
        List.fold_left
          (fun acc q ->
            acc
            +. (Mv_opt.Optimizer.optimize reg stats q).Mv_opt.Optimizer.cost)
          0.0 qs
      in
      let before = total registry in
      let epoch0 = Mv_core.Registry.epoch registry in
      Mv_opt.Advisor.register_picks registry advice;
      let after = total registry in
      Printf.printf
        "\nregistered %d picks (registry epoch %d -> %d)\n\
         workload cost before %.0f, after %.0f (%.2fx); model said %.0f -> \
         %.0f\n"
        (List.length advice.Mv_opt.Advisor.picks)
        epoch0
        (Mv_core.Registry.epoch registry)
        before after
        (if after > 0.0 then before /. after else 1.0)
        advice.Mv_opt.Advisor.cost_before advice.Mv_opt.Advisor.cost_after
    end
    else begin
      (* ---- --from-ledger: observe a skewed trace, re-price, compare ----
         The trace repeats query i roughly zipf-fashion, so the observed
         frequencies genuinely differ from the generator's uniform
         assumption; the ledger (not the trace list) is the only source of
         the weights, exactly as a live server would use it. *)
      let trace_reg = Mv_core.Registry.create schema in
      let trace =
        List.concat
          (List.mapi
             (fun i q -> List.init (max 1 (16 / (i + 1))) (fun _ -> q))
             qs)
      in
      List.iter
        (fun q -> ignore (Mv_opt.Optimizer.optimize trace_reg stats q))
        trace;
      let health = trace_reg.Mv_core.Registry.health in
      let freq = Hashtbl.create 64 in
      List.iter
        (fun (q, n) -> Hashtbl.replace freq (Mv_relalg.Spjg.to_sql q) n)
        (Mv_core.Health.query_frequencies health);
      let weight q =
        float_of_int
          (Option.value ~default:0
             (Hashtbl.find_opt freq (Mv_relalg.Spjg.to_sql q)))
      in
      let weights = Array.of_list (List.map weight qs) in
      Printf.printf
        "observed trace: %d submissions over %d distinct queries (ledger)\n"
        (Mv_core.Health.queries_total health)
        (List.length (Mv_core.Health.query_frequencies health));
      let ledger_advice =
        Mv_opt.Advisor.advise ~config ~weights schema stats ~candidates:defs
          ~queries:qs
      in
      print_picks ledger_advice;
      (* cost both selections with the real optimizer on the observed
         trace: each query's plan cost times how often the ledger saw it *)
      let trace_cost (advice : Mv_opt.Advisor.advice) =
        let reg = Mv_core.Registry.create schema in
        Mv_opt.Advisor.register_picks reg advice;
        List.fold_left
          (fun acc q ->
            acc
            +. weight q
               *. (Mv_opt.Optimizer.optimize reg stats q).Mv_opt.Optimizer.cost)
          0.0 qs
      in
      let uniform_cost = trace_cost advice in
      let ledger_cost = trace_cost ledger_advice in
      let used (a : Mv_opt.Advisor.advice) =
        List.fold_left
          (fun acc (p : Mv_opt.Advisor.pick) ->
            acc +. float_of_int p.Mv_opt.Advisor.rows)
          0.0 a.Mv_opt.Advisor.picks
      in
      let feasible =
        used ledger_advice <= config.Mv_opt.Advisor.budget +. 1e-6
      in
      Printf.printf
        "\nobserved-trace cost: generator-priced picks %.0f, ledger-priced \
         picks %.0f (%d vs %d picks, ledger budget used %.0f/%.0f)\n"
        uniform_cost ledger_cost
        (List.length advice.Mv_opt.Advisor.picks)
        (List.length ledger_advice.Mv_opt.Advisor.picks)
        (used ledger_advice) config.Mv_opt.Advisor.budget;
      if not feasible then begin
        prerr_endline "from-ledger: selection exceeds the storage budget";
        exit 3
      end;
      if ledger_cost > uniform_cost +. 1e-6 then begin
        prerr_endline
          "from-ledger: ledger-priced selection lost to the uniform one on \
           the observed trace";
        exit 3
      end;
      print_endline
        "ledger-priced selection is feasible and never worse on the observed \
         trace"
    end
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:
         "Mine view candidates from a generated workload, select a set under \
          a storage budget (greedy + local search with a maintenance-cost \
          term), register the picks, and report workload cost before/after; \
          --from-ledger re-prices with observed query frequencies")
    Term.(
      const run $ queries $ candidates $ budget $ seed $ write_fraction
      $ from_ledger)

(* ---- top / metrics ---- *)

(* Optimize a generated workload against its view population [passes]
   times with a timeline sampler running, so the registry's obs
   instruments, the per-view health ledger and the window ring all carry
   real data for `top` and `metrics` to surface. *)
let ledger_run ~views ~queries ~passes =
  let w =
    Mv_experiments.Harness.make_workload ~nviews:views ~nqueries:queries ()
  in
  let registry = Mv_core.Registry.create schema in
  List.iter
    (Mv_core.Registry.add_prebuilt registry)
    w.Mv_experiments.Harness.views;
  let obs = registry.Mv_core.Registry.obs in
  let tl = Mv_obs.Timeline.create obs in
  let sampler = Mv_obs.Timeline.start ~period:0.02 tl in
  for _ = 1 to max 1 passes do
    List.iter
      (fun q ->
        ignore
          (Mv_opt.Optimizer.optimize registry w.Mv_experiments.Harness.stats q))
      w.Mv_experiments.Harness.queries
  done;
  Mv_obs.Timeline.stop sampler;
  (registry, tl)

let workload_args =
  let views =
    Arg.(
      value & opt int 100
      & info [ "views" ] ~docv:"N" ~doc:"View population size.")
  in
  let queries =
    Arg.(
      value & opt int 25
      & info [ "queries" ] ~docv:"N" ~doc:"Query batch size.")
  in
  let passes =
    Arg.(
      value & opt int 2
      & info [ "passes" ] ~docv:"N"
          ~doc:"Optimize the batch this many times (warm ledger counts).")
  in
  (views, queries, passes)

let top_cmd =
  let views, queries, passes = workload_args in
  let limit =
    Arg.(
      value & opt int 0
      & info [ "limit" ] ~docv:"N"
          ~doc:"Keep only the first $(docv) rows (0 = all).")
  in
  let json_file =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also dump the obs registry, timeline and ledger as JSON.")
  in
  let run views queries passes limit json_file =
    let registry, tl = ledger_run ~views ~queries ~passes in
    let health = registry.Mv_core.Registry.health in
    Printf.printf
      "per-view health over %d optimizations (%d passes x %d queries), by \
       net benefit:\n"
      (Mv_core.Health.queries_total health)
      (max 1 passes) queries;
    print_string
      (Mv_core.Health.render
         ?limit:(if limit > 0 then Some limit else None)
         health);
    let rows = Mv_core.Health.rows health in
    let dead = List.filter Mv_core.Health.dead rows in
    Printf.printf "%d view(s), %d matched at least once, %d dead\n"
      (List.length rows)
      (List.length rows - List.length dead)
      (List.length dead);
    match json_file with
    | None -> ()
    | Some file ->
        dump_registry ~timeline:tl ~health registry.Mv_core.Registry.obs file
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Run a ledger-observed workload and print the per-view health \
          table (times candidate/matched/chosen, estimated benefit, \
          maintenance seconds) sorted by net benefit, dead views flagged")
    Term.(const run $ views $ queries $ passes $ limit $ json_file)

let metrics_cmd =
  let views, queries, passes = workload_args in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the OpenMetrics exposition to $(docv) instead of stdout.")
  in
  let run views queries passes out =
    let registry, tl = ledger_run ~views ~queries ~passes in
    let obs = registry.Mv_core.Registry.obs in
    let families =
      Mv_obs.Export.families_of_registry obs
      @ Mv_core.Health.families registry.Mv_core.Registry.health
      @ Mv_obs.Export.families_of_timeline tl
    in
    let body = Mv_obs.Export.render families in
    match out with
    | None -> print_string body
    | Some file ->
        let oc = open_out file in
        output_string oc body;
        close_out oc;
        Printf.printf "wrote %s\n" file
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a ledger-observed workload and export every obs instrument, \
          the per-view health ledger and the timeline windows in \
          OpenMetrics text format")
    Term.(const run $ views $ queries $ passes $ out)

(* ---- refresh ---- *)

let refresh_cmd =
  let scale =
    Arg.(
      value & opt int 2
      & info [ "scale" ] ~docv:"N" ~doc:"TPC-H data generator scale.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let batches =
    Arg.(
      value & opt int 5
      & info [ "batches" ] ~docv:"N"
          ~doc:"Maintained write batches to push through Ivm.apply.")
  in
  let batch_rows =
    Arg.(
      value & opt int 8
      & info [ "batch-rows" ] ~docv:"N"
          ~doc:"Base rows written per batch (half inserts, half deletes).")
  in
  let run scale seed batches batch_rows =
    let db = Mv_tpch.Datagen.generate ~seed ~scale () in
    let registry = Mv_core.Registry.create schema in
    let view_sql =
      {| create view rf_rev with schemabinding as
         select o_custkey, count_big(*) as cnt,
                sum(l_extendedprice) as rev
         from dbo.lineitem, dbo.orders
         where l_orderkey = o_orderkey
         group by o_custkey |}
    in
    let name, vdef = Mv_sql.Parser.parse_view schema view_sql in
    let view = Mv_core.Registry.add_view registry ~name vdef in
    ignore (Mv_engine.Exec.materialize db view);
    let stats = Mv_engine.Database.stats db in
    let q =
      Mv_sql.Parser.parse_query schema
        {| select o_custkey, sum(l_extendedprice) as rev
           from lineitem, orders
           where l_orderkey = o_orderkey
           group by o_custkey |}
    in
    let uses () =
      let r = Mv_opt.Optimizer.optimize registry stats q in
      List.mem name (Mv_opt.Plan.views_used r.Mv_opt.Optimizer.plan)
    in
    Printf.printf "materialized %s (%d rows)\n" name
      view.Mv_core.View.row_count;
    Printf.printf "optimize uses the view: %b\n" (uses ());
    (* keep it current incrementally under write batches *)
    let ivm = Mv_engine.Ivm.create db in
    Mv_engine.Ivm.attach ivm view;
    let rng = Mv_util.Prng.create (seed + 1) in
    let t0 = Mv_obs.Instrument.now_wall () in
    for _ = 1 to max 1 batches do
      let rows = (Mv_engine.Database.table_exn db "lineitem").Mv_engine.Table.rows in
      Mv_engine.Ivm.apply ivm
        [
          ( "lineitem",
            Mv_experiments.Harness.random_delta rng rows ~nrows:batch_rows );
        ]
    done;
    let wall = Mv_obs.Instrument.now_wall () -. t0 in
    Printf.printf "\napplied %d maintained batches (%d rows each) in %.4fs\n"
      (max 1 batches) batch_rows wall;
    (* verify: the maintained contents match a from-scratch evaluation *)
    let direct = Mv_engine.Exec.execute db (Mv_core.View.spjg view) in
    let kept =
      {
        Mv_engine.Relation.cols = direct.Mv_engine.Relation.cols;
        rows = (Mv_engine.Database.table_exn db name).Mv_engine.Table.rows;
      }
    in
    let ok = Mv_engine.Relation.same_bag direct kept in
    Printf.printf "maintained contents equivalent to recomputation: %b\n" ok;
    let used = uses () in
    Printf.printf "optimize uses the view: %b\n" used;
    if not (ok && used) then exit 3
  in
  Cmd.v
    (Cmd.info "refresh"
       ~doc:
         "Demonstrate incremental maintenance: materialize a view, keep it \
          current under write batches (Ivm.apply), and verify the \
          maintained contents against recomputation and that the optimizer \
          still uses the view; exits 3 otherwise")
    Term.(const run $ scale $ seed $ batches $ batch_rows)

(* ---- demo ---- *)

let demo_cmd =
  let run () =
    let db = Mv_tpch.Datagen.generate ~seed:1 ~scale:2 () in
    let registry = Mv_core.Registry.create schema in
    let view_sql =
      {| create view demo_rev with schemabinding as
         select o_custkey, count_big(*) as cnt,
                sum(l_quantity * l_extendedprice) as revenue
         from dbo.lineitem, dbo.orders
         where l_orderkey = o_orderkey
         group by o_custkey |}
    in
    let name, vdef = Mv_sql.Parser.parse_view schema view_sql in
    let view = Mv_core.Registry.add_view registry ~name vdef in
    ignore (Mv_engine.Exec.materialize db view);
    Printf.printf "registered + materialized view:\n%s\n\n" view_sql;
    let q =
      Mv_sql.Parser.parse_query schema
        {| select o_custkey, avg(l_quantity * l_extendedprice) as avg_rev
           from lineitem, orders
           where l_orderkey = o_orderkey and o_custkey <= 30
           group by o_custkey |}
    in
    Printf.printf "query:\n%s\n\n" (Mv_relalg.Spjg.to_sql q);
    match Mv_core.Registry.find_substitutes_spjg registry q with
    | [] -> print_endline "no substitute found"
    | s :: _ ->
        Printf.printf "substitute:\n%s\n\n" (Mv_core.Substitute.to_sql s);
        let direct = Mv_engine.Exec.execute db q in
        let via = Mv_engine.Exec.execute_substitute db s in
        Printf.printf "equivalent on generated data: %b (%d rows)\n"
          (Mv_engine.Relation.same_bag direct via)
          (Mv_engine.Relation.cardinality direct)
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Self-contained end-to-end demonstration")
    Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "mvopt" ~version:"1.0.0"
       ~doc:
         "View matching for materialized views (Goldstein & Larson, SIGMOD \
          2001)")
    [
      parse_cmd;
      match_cmd;
      explain_cmd;
      whynot_cmd;
      generate_cmd;
      advise_cmd;
      top_cmd;
      metrics_cmd;
      refresh_cmd;
      demo_cmd;
    ]

let () = exit (Cmd.eval main)
