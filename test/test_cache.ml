(** Plan-table tests: the serving front's one cache ({!Mv_experiments.Serve}).

    The differential suite ([par_cache], picked up by the @runtest-quick
    alias alongside the parallel harness smoke) drives a 200-query workload
    through a front and straight through the optimizer, sequentially and
    sharded over domains: the plans must be byte-identical in every
    configuration. MVIEW_PAR_QUICK shrinks the workload and the domain
    grid.

    The unit suite ([cache]) covers invalidation after a drop of a used
    view (never a stale plan), revalidation across the drop and re-add of
    an unused one, invalidation on every change without the filter tree,
    eviction under a tiny capacity, and a model-based property: random
    add/drop/stale/fresh/submit sequences, every serve (plan and pruned
    views) equal to uncached optimization against the registry at that
    moment, and some serve revalidated across an epoch change. *)

module H = Mv_experiments.Harness
module Pool = Mv_experiments.Pool
module S = Mv_experiments.Serve
module R = Mv_core.Registry
module V = Mv_core.View
module Opt = Mv_opt.Optimizer
module Plan = Mv_opt.Plan

let quick = Sys.getenv_opt "MVIEW_PAR_QUICK" <> None

(* The differential workload: 200 queries in the full run, per the
   acceptance spec; a fraction of that under the quick alias. *)
let big =
  lazy (H.make_workload ~nviews:100 ~nqueries:(if quick then 40 else 200) ())

(* A small private workload for the unit tests. *)
let small = lazy (H.make_workload ~nviews:40 ~nqueries:12 ())

let setup ?capacity ?use_filter (w : H.workload) ~nviews =
  let reg = R.create ?use_filter w.H.schema in
  List.iter (R.add_prebuilt reg) (H.take nviews w.H.views);
  Mv_relalg.Intern.freeze ();
  (reg, S.front ?capacity reg w.H.stats)

(* One pass over the workload, through the front when given, else
   straight through the optimizer. *)
let pass ?front ?(domains = 1) reg (w : H.workload) =
  let queries = Array.of_list w.H.queries in
  Pool.map_chunked ~domains (Array.length queries) (fun i ->
      let r =
        match front with
        | Some f -> snd (S.submit f queries.(i))
        | None -> Opt.optimize reg w.H.stats queries.(i)
      in
      (Plan.to_string r.Opt.plan, Plan.views_used r.Opt.plan))

let counter reg name = Mv_obs.Registry.counter_value reg.R.obs name

(* ---------------------------------------------------------------- *)
(* Differential: served == optimized, at 1 and 4 domains            *)
(* ---------------------------------------------------------------- *)

let test_differential () =
  let w = Lazy.force big in
  let reg, front = setup w ~nviews:100 in
  let baseline = pass reg w in
  Alcotest.(check bool) "workload exercises the views" true
    (List.exists (fun (_, used) -> used <> []) baseline);
  List.iter
    (fun domains ->
      let label what = Printf.sprintf "%s (%d domains)" what domains in
      let cold = pass ~front ~domains reg w in
      let warm = pass ~front ~domains reg w in
      Alcotest.(check bool)
        (label "cold served pass == optimized") true (cold = baseline);
      Alcotest.(check bool)
        (label "warm served pass == optimized") true (warm = baseline))
    (if quick then [ 1; 2 ] else [ 1; 4 ]);
  Alcotest.(check bool) "the warm passes actually hit" true
    (counter reg "cache.plan.hits" > 0)

(* ---------------------------------------------------------------- *)
(* Unit tests                                                       *)
(* ---------------------------------------------------------------- *)

(* A drop between passes must invalidate (the counter moves) and the next
   served pass must agree with optimization against the mutated registry
   — in particular, no plan may still use the dropped view. *)
let test_drop_invalidates_never_stale () =
  let w = Lazy.force small in
  let reg, front = setup w ~nviews:40 in
  let cold = pass ~front reg w in
  let dropped =
    match List.concat_map (fun (_, used) -> used) cold with
    | name :: _ -> name
    | [] -> Alcotest.fail "workload never used a view; test is vacuous"
  in
  let before = counter reg "cache.plan.invalidations" in
  R.remove_view reg dropped;
  let served = pass ~front reg w in
  let direct = pass reg w in
  Alcotest.(check bool) "post-drop served pass == optimized" true
    (served = direct);
  Alcotest.(check bool) "the drop invalidated entries" true
    (counter reg "cache.plan.invalidations" > before);
  List.iter
    (fun (_, used) ->
      Alcotest.(check bool)
        (Printf.sprintf "no plan still uses %s" dropped)
        false
        (List.mem dropped used))
    served

(* Every view some rule invocation of the workload's queries finds as a
   candidate, over [nviews] views. *)
let candidate_views reg (w : H.workload) =
  let found = ref [] in
  List.iter
    (fun q ->
      ignore
        (Opt.optimize
           ~record:(fun _ cands -> found := cands @ !found)
           reg w.H.stats q))
    w.H.queries;
  !found

(* A view no rule invocation finds: dropping it and adding it back
   changes no candidate list, so a stored plan is revalidated across
   both changes, never invalidated. *)
let test_unused_view_revalidates () =
  let w = Lazy.force small in
  let reg, front = setup w ~nviews:40 in
  let found = candidate_views reg w in
  let unused =
    match
      List.filter (fun v -> not (List.memq v found)) (List.rev w.H.views)
    with
    | v :: _ -> v
    | [] -> Alcotest.fail "every view is a candidate; test is vacuous"
  in
  let q = List.hd w.H.queries in
  let plan () = Plan.to_string (Opt.optimize reg w.H.stats q).Opt.plan in
  ignore (S.submit front q);
  let before name = (name, counter reg name) in
  let counts =
    List.map before
      [
        "cache.plan.hits"; "cache.plan.invalidations";
        "cache.plan.revalidations";
      ]
  in
  let moved name = counter reg name - List.assoc name counts in
  List.iter
    (fun change ->
      change ();
      let ep, r = S.submit front q in
      Alcotest.(check int) "served at the current epoch" (R.epoch reg) ep;
      Alcotest.(check string) "served plan == optimized" (plan ())
        (Plan.to_string r.Opt.plan))
    [
      (fun () -> R.remove_view reg unused.V.name);
      (fun () -> R.add_prebuilt reg unused);
    ];
  Alcotest.(check int) "both submits hit" 2 (moved "cache.plan.hits");
  Alcotest.(check int) "both revalidated" 2 (moved "cache.plan.revalidations");
  Alcotest.(check int) "no invalidation" 0 (moved "cache.plan.invalidations")

(* The change log is bounded: after more changes than it keeps, a plan
   stamped before them cannot be revalidated and misses, although the
   same churn within the log's reach revalidates it. *)
let test_entry_older_than_log_misses () =
  let w = Lazy.force small in
  let reg, front = setup w ~nviews:40 in
  let found = candidate_views reg w in
  let unused =
    List.find (fun v -> not (List.memq v found)) (List.rev w.H.views)
  in
  let q = List.hd w.H.queries in
  let churn n =
    for _ = 1 to n do
      R.remove_view reg unused.V.name;
      R.add_prebuilt reg unused
    done
  in
  ignore (S.submit front q);
  churn 10;
  ignore (S.submit front q);
  Alcotest.(check int) "within the log: revalidated" 1
    (counter reg "cache.plan.revalidations");
  churn 1100;
  let s = R.snapshot reg in
  let logged = List.length s.R.snap_log in
  Alcotest.(check bool)
    (Printf.sprintf "the log keeps 1024 to 2047 changes (%d)" logged)
    true
    (logged >= 1024 && logged < 2048
    && logged = s.R.snap_epoch - s.R.snap_log_from);
  let before = counter reg "cache.plan.invalidations" in
  let ep, r = S.submit front q in
  Alcotest.(check int) "older than the log: invalidated" (before + 1)
    (counter reg "cache.plan.invalidations");
  Alcotest.(check int) "served at the current epoch" (R.epoch reg) ep;
  Alcotest.(check string) "served plan == optimized"
    (Plan.to_string (Opt.optimize reg w.H.stats q).Opt.plan)
    (Plan.to_string r.Opt.plan)

(* Without the filter tree every rule invocation's candidates are the
   whole population, so every add or drop invalidates. *)
let test_no_filter_invalidates_every_change () =
  let w = Lazy.force small in
  let reg, front = setup ~use_filter:false w ~nviews:40 in
  let q = List.hd w.H.queries in
  ignore (S.submit front q);
  let v = List.nth w.H.views 20 in
  List.iteri
    (fun i change ->
      change ();
      let before = counter reg "cache.plan.invalidations" in
      let _, r = S.submit front q in
      Alcotest.(check int)
        (Printf.sprintf "change %d invalidated" i)
        (before + 1)
        (counter reg "cache.plan.invalidations");
      Alcotest.(check string) "served plan == optimized"
        (Plan.to_string (Opt.optimize reg w.H.stats q).Opt.plan)
        (Plan.to_string r.Opt.plan))
    [
      (fun () -> R.remove_view reg v.V.name);
      (fun () -> R.add_prebuilt reg v);
    ];
  Alcotest.(check int) "never revalidated" 0
    (counter reg "cache.plan.revalidations")

let test_eviction_under_tiny_capacity () =
  let w = Lazy.force small in
  let reg, front = setup ~capacity:2 w ~nviews:40 in
  let baseline = pass reg w in
  let first = pass ~front reg w in
  let second = pass ~front reg w in
  (* 12 distinct queries through a 2-entry table must evict... *)
  Alcotest.(check bool) "evictions happened" true
    (counter reg "cache.plan.evictions" > 0);
  (* ...and never change an answer *)
  Alcotest.(check bool) "first pass correct under thrash" true
    (first = baseline);
  Alcotest.(check bool) "second pass correct under thrash" true
    (second = baseline)

(* ---------------------------------------------------------------- *)
(* Model: every serve equals uncached optimization at that moment   *)
(* ---------------------------------------------------------------- *)

type op = Submit of int | Add of int | Drop of int | Stale of int | Fresh of int

let show_op = function
  | Submit i -> Printf.sprintf "submit %d" i
  | Add i -> Printf.sprintf "add %d" i
  | Drop i -> Printf.sprintf "drop %d" i
  | Stale i -> Printf.sprintf "stale %d" i
  | Fresh i -> Printf.sprintf "fresh %d" i

let arb_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (6, map (fun i -> Submit i) nat);
        (2, map (fun i -> Add i) nat);
        (2, map (fun i -> Drop i) nat);
        (1, map (fun i -> Stale i) nat);
        (1, map (fun i -> Fresh i) nat);
      ]
  in
  QCheck.pair QCheck.bool
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       ~shrink:QCheck.Shrink.list
       (list_size (int_range 1 40) op))

(* The views some query's plan uses over the full population, whose drop
   can stale a stored plan, and eight views no plan uses, whose adds and
   drops a stored plan can survive. *)
let churn_pool =
  lazy
    (let w = Lazy.force small in
     let reg, _ = setup w ~nviews:40 in
     let used = List.concat_map snd (pass reg w) in
     let is_used v = List.mem v.V.name used in
     List.filter is_used w.H.views
     @ H.take 8 (List.filter (fun v -> not (is_used v)) w.H.views))

(* Submits the model property served by revalidation, over all cases. *)
let revalidated = ref 0

let model_prop =
  QCheck.Test.make
    ~name:"plan table: every serve equals uncached optimization"
    ~count:(Helpers.qcheck_count 30) arb_ops
    (fun (tiny, ops) ->
      let w = Lazy.force small in
      let pool = Lazy.force churn_pool in
      let reg, front = setup ~capacity:(if tiny then 2 else 4096) w ~nviews:40 in
      let queries = Array.of_list w.H.queries in
      let tables = [| "lineitem"; "orders"; "customer"; "part" |] in
      let nth l i = List.nth l (i mod List.length l) in
      let registered v = R.find_view reg v.V.name <> None in
      let submits = ref 0 in
      let step = function
        | Submit i ->
            incr submits;
            let q = queries.(i mod Array.length queries) in
            let ep, r = S.submit front q in
            let fresh = Opt.optimize reg w.H.stats q in
            ep = R.epoch reg
            && String.equal
                 (Plan.to_string r.Opt.plan)
                 (Plan.to_string fresh.Opt.plan)
        | Add i ->
            (match List.filter (fun v -> not (registered v)) pool with
            | [] -> ()
            | vs -> R.add_prebuilt reg (nth vs i));
            true
        | Drop i ->
            (match List.filter registered pool with
            | [] -> ()
            | vs -> R.remove_view reg (nth vs i).V.name);
            true
        | Stale i ->
            ignore (R.mark_stale reg ~tables:[ tables.(i mod 4) ]);
            true
        | Fresh i ->
            V.mark_fresh (nth w.H.views i);
            true
      in
      let ok = List.for_all step ops in
      (* the descriptors are shared with the other cases *)
      List.iter (fun v -> V.mark_fresh v) w.H.views;
      revalidated := !revalidated + counter reg "cache.plan.revalidations";
      ok
      && counter reg "cache.plan.hits" + counter reg "serve.flight.leaders"
         = !submits)

(* The property, then the check that revalidation served something: a
   churn pool whose every change invalidated would pass it vacuously. *)
let model_case =
  let name, speed, run = Helpers.qtest model_prop in
  ( name,
    speed,
    fun () ->
      revalidated := 0;
      run ();
      Alcotest.(check bool)
        "some submit served across an epoch change" true (!revalidated > 0) )

let suite =
  [
    ( "par_cache",
      [
        Alcotest.test_case "cache on/off differential, 1 and 4 domains"
          `Quick test_differential;
      ] );
    ( "cache",
      [
        Alcotest.test_case "drop invalidates; nothing stale" `Quick
          test_drop_invalidates_never_stale;
        Alcotest.test_case "an unused view's drop and re-add revalidate"
          `Quick test_unused_view_revalidates;
        Alcotest.test_case "without the filter, every change invalidates"
          `Quick test_no_filter_invalidates_every_change;
        Alcotest.test_case "an entry older than the change log misses"
          `Quick test_entry_older_than_log_misses;
        Alcotest.test_case "eviction under capacity 2" `Quick
          test_eviction_under_tiny_capacity;
        model_case;
      ] );
  ]
