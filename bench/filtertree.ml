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
module M = Mv_experiments.Measure
module J = Mv_obs.Json

let timed_passes = 5

(* One plan at one population: the [plans.<plan>.*] metrics (searches,
   final candidates summed over all queries, per-pass wall time) and the
   [plans.<plan>.levels] sub-list. *)
let run_plan ?(domains = 1) ~backjoins ~nviews (w : H.workload)
    (queries : Mv_relalg.Analysis.t list) =
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
  let levels = H.levels registry in
  (* timed passes *)
  let t0 = Mv_obs.Instrument.now_wall () in
  for _ = 1 to timed_passes do
    ignore
      (Mv_experiments.Pool.map_list ~domains
         (fun q -> ignore (Mv_core.Registry.candidates registry q))
         queries)
  done;
  let wall = Mv_obs.Instrument.now_wall () -. t0 in
  let key k =
    "plans." ^ (if backjoins then "backjoin_plan" else "default_plan") ^ "."
    ^ k
  in
  ( [
      (key "searches", J.Int searches);
      (key "candidates", J.Int candidates);
      (key "wall_time_s", J.Float (wall /. float_of_int timed_passes));
    ],
    (key "levels", levels) )

(* Both plans at every population size in [nviews_list]: the
   [filter_tree] section of the bench trajectory. Its [plans] carry the
   full population (backward-compatible with earlier trajectories),
   [sweep] one point per size. *)
let run ?(domains = 1) (w : H.workload) (nviews_list : int list) : M.t =
  let total = List.length w.H.views in
  let queries = List.map (Mv_relalg.Analysis.analyze w.H.schema) w.H.queries in
  (* discarded warmup so the first sweep point doesn't pay one-time costs *)
  ignore (run_plan ~domains ~backjoins:false ~nviews:(min 100 total) w queries);
  let point nviews =
    let metrics, subs =
      List.split
        (List.map
           (fun backjoins -> run_plan ~domains ~backjoins ~nviews w queries)
           [ false; true ])
    in
    M.make "point"
      ~params:[ ("nviews", J.Int nviews) ]
      ~metrics:(List.concat metrics) ~subs
  in
  let sweep = List.map point nviews_list in
  let full =
    match List.rev sweep with m :: _ -> m | [] -> M.make "point"
  in
  M.make "filter_tree"
    ~params:
      [
        ("nviews", J.Int total);
        ("queries", J.Int (List.length w.H.queries));
        ("timed_passes", J.Int timed_passes);
      ]
    ~metrics:full.M.metrics
    ~subs:(full.M.subs @ [ ("sweep", sweep) ])
