(** Plan-table tests: the serving front's one cache ({!Mv_experiments.Serve}).

    The differential suite ([par_cache], picked up by the @runtest-quick
    alias alongside the parallel harness smoke) drives a 200-query workload
    through a front and straight through the optimizer, sequentially and
    sharded over domains: the plans must be byte-identical in every
    configuration. MVIEW_PAR_QUICK shrinks the workload and the domain
    grid.

    The unit suite ([cache]) covers epoch invalidation after a drop (never
    a stale plan), eviction under a tiny capacity, and a model-based
    property: random add/drop/stale/fresh/submit sequences, every serve
    (plan and pruned views) equal to uncached optimization against the
    registry at that moment. *)

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

let setup ?capacity (w : H.workload) ~nviews =
  let reg = R.create w.H.schema in
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

(* The views some query's plan uses over the full population: adding and
   dropping only these makes every drop able to stale a stored plan. *)
let churn_pool =
  lazy
    (let w = Lazy.force small in
     let reg, _ = setup w ~nviews:40 in
     let used = List.concat_map snd (pass reg w) in
     List.filter (fun v -> List.mem v.V.name used) w.H.views)

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
      ok
      && counter reg "cache.plan.hits" + counter reg "serve.flight.leaders"
         = !submits)

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
        Alcotest.test_case "eviction under capacity 2" `Quick
          test_eviction_under_tiny_capacity;
        Helpers.qtest model_prop;
      ] );
  ]
