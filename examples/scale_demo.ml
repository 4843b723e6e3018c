(** Scalability demo: 1000 randomly generated views in one registry, the
    filter tree pruning each view-matching invocation to a handful of
    candidates (section 4 / section 5 of the paper).

    Run with: dune exec examples/scale_demo.exe *)

let schema = Mv_tpch.Schema.schema

let () =
  let stats = Mv_tpch.Datagen.synthetic_stats () in
  Printf.printf "Generating 1000 random views (section 5 recipe)...\n%!";
  let registry = Mv_core.Registry.create schema in
  List.iter
    (fun (name, spjg) ->
      ignore
        (Mv_core.Registry.add_view registry ~name
           ~row_count:(Mv_opt.Cost.estimate_view_rows stats spjg)
           spjg))
    (Mv_workload.Generator.views schema stats 1000);
  Printf.printf "Registry: %d views, %d lattice nodes across the filter tree\n\n"
    (Mv_core.Registry.view_count registry)
    (Mv_core.Filter_tree.stats
       (Mv_core.Registry.snapshot registry).Mv_core.Registry.snap_tree);

  let queries = Mv_workload.Generator.queries schema stats 100 in
  let t0 = Sys.time () in
  let totals = ref (0, 0, 0) in
  List.iter
    (fun q ->
      let qa = Mv_relalg.Analysis.analyze schema q in
      let cands = Mv_core.Registry.candidates registry qa in
      let subs = Mv_core.Registry.find_substitutes registry qa in
      let c, s, n = !totals in
      totals := (c + List.length cands, s + List.length subs, n + 1))
    queries;
  let dt = Sys.time () -. t0 in
  let c, s, n = !totals in
  Printf.printf
    "100 queries against 1000 views:\n\
    \  %.2f candidate views per invocation (%.3f%% of the population)\n\
    \  %.2f substitutes per invocation\n\
    \  %.2f ms per invocation (filtering + full matching)\n"
    (float_of_int c /. float_of_int n)
    (float_of_int c /. float_of_int n /. 10.0)
    (float_of_int s /. float_of_int n)
    (dt *. 1000.0 /. float_of_int n);

  (* show one concrete match *)
  print_endline "\nA sample rewrite found among the 1000 views:";
  let found =
    List.find_map
      (fun q ->
        match Mv_core.Registry.find_substitutes_spjg registry q with
        | s :: _ -> Some (q, s)
        | [] -> None)
      queries
  in
  (match found with
  | Some (q, s) ->
      Printf.printf "query:\n%s\n\nsubstitute:\n%s\n"
        (Mv_relalg.Spjg.to_sql q)
        (Mv_core.Substitute.to_sql s)
  | None -> print_endline "(none in this sample)");
  print_endline "\nDone."
