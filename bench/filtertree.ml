(** Filter-tree bench: the level-by-level pruning breakdown of section 4,
    per index plan ([default_plan] vs [backjoin_plan]), over the section-5
    workload — now swept over the view-population sizes of the paper's
    Figure 6 (0..1000 views), not just the full population. This is the
    machine-readable counterpart of the paper's Figures 6-7 discussion: how
    many candidate views enter each level, how many survive it, and how
    long pure candidate selection takes as the population grows.

    Timing protocol: one untimed pass records the per-level counters, then
    [timed_passes] passes over the whole query batch are timed and the
    reported wall time is the per-pass average — candidate selection at
    1000 views is a ~10ms-per-batch affair, so single-shot timings are
    dominated by warmup noise. *)

module H = Mv_experiments.Harness
module J = Mv_obs.Json

let timed_passes = 5

type plan_result = {
  plan_name : string;
  searches : int;
  candidates : int;  (** final candidates summed over all queries *)
  wall_time_s : float;  (** per-pass average over [timed_passes] *)
  levels : H.level_flow list;
}

let run_plan ?(domains = 1) ~backjoins ~nviews (w : H.workload)
    (queries : Mv_relalg.Analysis.t list) : plan_result =
  let registry =
    Mv_core.Registry.create ~use_filter:true ~backjoins w.H.schema
  in
  List.iter (Mv_core.Registry.add_prebuilt registry) (H.take nviews w.H.views);
  Mv_relalg.Intern.freeze ();
  (* counter pass: per-level flow and the candidate totals. Sharded over
     [domains] like the timed passes (chunked, so each pre-analyzed query
     is touched by exactly one domain per pass; passes are separated by
     Domain.join). *)
  let candidates =
    List.fold_left ( + ) 0
      (Mv_experiments.Pool.map_list ~domains
         (fun q -> List.length (Mv_core.Registry.candidates registry q))
         queries)
  in
  let searches =
    Mv_obs.Registry.counter_value registry.Mv_core.Registry.obs
      "filter_tree.searches"
  in
  let levels = H.level_flow_of registry in
  (* timed passes *)
  let span = Mv_obs.Instrument.enter () in
  for _ = 1 to timed_passes do
    ignore
      (Mv_experiments.Pool.map_list ~domains
         (fun q -> ignore (Mv_core.Registry.candidates registry q))
         queries)
  done;
  let wall, _ = Mv_obs.Instrument.elapsed span in
  {
    plan_name = (if backjoins then "backjoin_plan" else "default_plan");
    searches;
    candidates;
    wall_time_s = wall /. float_of_int timed_passes;
    levels;
  }

let print_result ~nviews (r : plan_result) =
  Printf.printf "\n%4d views, %s: %d searches, %d candidates total, %.5fs\n"
    nviews r.plan_name r.searches r.candidates r.wall_time_s;
  Printf.printf "  %-28s %12s %12s %9s\n" "level" "entered" "passed" "kept";
  List.iter
    (fun (f : H.level_flow) ->
      Printf.printf "  %-28s %12d %12d %8.1f%%\n" f.H.level f.H.entered
        f.H.passed
        (100.0 *. float_of_int f.H.passed
         /. float_of_int (max 1 f.H.entered)))
    r.levels

let to_json (r : plan_result) =
  J.Obj
    [
      ("searches", J.Int r.searches);
      ("candidates", J.Int r.candidates);
      ("wall_time_s", J.Float r.wall_time_s);
      ("levels", Mv_experiments.Report.level_flow_json r.levels);
    ]

let plans_json results =
  J.Obj (List.map (fun r -> (r.plan_name, to_json r)) results)

(* Both plans at every population size in [nviews_list]; returns the JSON
   section for the bench trajectory file. [plans] carries the full
   population (backward-compatible with earlier trajectories), [sweep] one
   entry per size. *)
let run ?(domains = 1) (w : H.workload) (nviews_list : int list) : J.t =
  print_endline
    "\n== Filter tree: per-level candidate flow (default vs backjoin plan) ==";
  let total = List.length w.H.views in
  Printf.printf "%d views, %d queries, populations %s%s.\n" total
    (List.length w.H.queries)
    (String.concat "," (List.map string_of_int nviews_list))
    (if domains > 1 then Printf.sprintf ", %d domains" domains else "");
  let queries = List.map (Mv_relalg.Analysis.analyze w.H.schema) w.H.queries in
  (* discarded warmup so the first sweep point doesn't pay one-time costs *)
  ignore (run_plan ~domains ~backjoins:false ~nviews:(min 100 total) w queries);
  let sweep =
    List.map
      (fun nviews ->
        let results =
          [
            run_plan ~domains ~backjoins:false ~nviews w queries;
            run_plan ~domains ~backjoins:true ~nviews w queries;
          ]
        in
        List.iter (print_result ~nviews) results;
        (nviews, results))
      nviews_list
  in
  let full =
    match List.rev sweep with
    | (_, results) :: _ -> results
    | [] -> []
  in
  J.Obj
    [
      ("nviews", J.Int total);
      ("queries", J.Int (List.length w.H.queries));
      ("timed_passes", J.Int timed_passes);
      ("plans", plans_json full);
      ( "sweep",
        J.List
          (List.map
             (fun (nviews, results) ->
               J.Obj
                 [ ("nviews", J.Int nviews); ("plans", plans_json results) ])
             sweep) );
    ]
