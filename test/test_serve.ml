(** Concurrency suite for the serving front end (DESIGN.md §10): a
    linearizability-style model test over RCU registry snapshots under
    add/drop churn, a single-flight stress herd, a qcheck differential
    against sequential optimization, the lost-update property for the
    plan-layer and flight counters, registry JSON snapshots under
    concurrent phase histograms, and the open-loop driver's arrival
    pacing.

    Suites are named with a [serve_] prefix so the @runtest-quick alias
    can select them; MVIEW_SERVE_QUICK=1 shrinks the domain grid to 2 and
    the stress loops/durations to CI size. *)

module H = Mv_experiments.Harness
module M = Mv_experiments.Measure
module S = Mv_experiments.Serve
module Pool = Mv_experiments.Pool
module R = Mv_core.Registry
module Opt = Mv_opt.Optimizer
module Plan = Mv_opt.Plan
module Obs = Mv_obs

let quick = Sys.getenv_opt "MVIEW_SERVE_QUICK" <> None
let domain_counts = if quick then [ 2 ] else [ 2; 4 ]

(* A private workload: big enough that optimizations are non-trivial and
   views overlap, small enough that the scratch-registry replay of the
   linearizability check stays fast. *)
let wl =
  lazy (H.make_workload ~nviews:100 ~nqueries:(if quick then 8 else 12) ())

(* A fresh registry + front over the first [n] workload views. *)
let mk_front ?(n = 80) () =
  let w = Lazy.force wl in
  let registry = R.create w.H.schema in
  List.iter (R.add_prebuilt registry) (H.take n w.H.views);
  Mv_relalg.Intern.freeze ();
  (w, registry, S.front registry w.H.stats)

(* ---------------------------------------------------------------- *)
(* Linearizability: every observation explainable in epoch order    *)
(* ---------------------------------------------------------------- *)

(* The model test rides the open-loop driver itself: N serving domains in
   a closed loop against one registry while the mutator drops/re-adds tail
   views; [Serve.run] samples per-domain (epoch, query, plan) observations
   and replays each against a scratch registry holding exactly the view
   population of the observed epoch. [churn.consistent] is the verdict. *)
let test_linearizable () =
  let w = Lazy.force wl in
  List.iter
    (fun domains ->
      let cfg =
        {
          S.default_cfg with
          S.nviews = 100;
          domains;
          rate = 0.0 (* closed loop: maximum contention *);
          duration = (if quick then 0.3 else 0.6);
          warmup = false;
          churn_period = 0.02;
          churn_pool = 6;
          sample = 96;
          sample_stride = 3;
        }
      in
      let m = S.run ~cfg w in
      let n = M.int m in
      let lbl what = Printf.sprintf "%d domains: %s" domains what in
      Alcotest.(check bool) (lbl "served queries") true (n "queries" > 0);
      Alcotest.(check bool) (lbl "mutator ran") true (n "churn.mutations" > 0);
      Alcotest.(check bool) (lbl "observations sampled") true
        (n "churn.sampled" > 0);
      (* the single mutator's ops are all effective, so each bumps the
         epoch exactly once: the run covers mutations+1 registry states *)
      Alcotest.(check int)
        (lbl "epoch delta = mutations")
        (n "churn.mutations")
        (n "churn.epoch_hi" - n "churn.epoch_lo");
      Alcotest.(check bool)
        (lbl "every observation explainable by its epoch's registry state")
        true
        (M.verdict m "churn.consistent"))
    domain_counts

(* ---------------------------------------------------------------- *)
(* Serving under write traffic: delta batches ride the mutator      *)
(* ---------------------------------------------------------------- *)

(* The churn mutator also pushes IVM delta batches (against a private
   database + view clones) and flips staleness bits on the live registry
   between ticks. Everything the read side guarantees must survive:
   the linearizability replay, the epoch accounting, and the per-submit
   cache/flight identities — while the maintained contents stay equal to
   a from-scratch recomputation. *)
let test_serve_under_writes () =
  let w = Lazy.force wl in
  List.iter
    (fun domains ->
      let cfg =
        {
          S.default_cfg with
          S.nviews = 100;
          domains;
          rate = 0.0;
          duration = (if quick then 0.3 else 0.6);
          warmup = false;
          churn_period = 0.02;
          churn_pool = 4;
          sample = 96;
          sample_stride = 3;
          maintain_batch = 8;
          maintain_views = 8;
        }
      in
      let m = S.run ~cfg w in
      let n = M.int m in
      let lbl what = Printf.sprintf "%d domains: %s" domains what in
      Alcotest.(check bool) (lbl "served queries") true (n "queries" > 0);
      Alcotest.(check bool) (lbl "delta batches applied") true
        (n "churn.maint_batches" > 0);
      Alcotest.(check bool)
        (lbl "maintained views == from-scratch recomputation")
        true
        (M.verdict m "churn.maint_consistent");
      (* maintenance and staleness flips never move the registry epoch:
         the add/drop log still accounts for every epoch step *)
      Alcotest.(check int)
        (lbl "epoch delta = add/drop mutations")
        (n "churn.mutations")
        (n "churn.epoch_hi" - n "churn.epoch_lo");
      Alcotest.(check bool)
        (lbl "linearizability replay still passes under writes")
        true
        (M.verdict m "churn.consistent");
      (* single-flight accounting identity over the whole run: every
         submit resolves exactly one way — plan-layer hit, flight leader,
         or flight waiter *)
      Alcotest.(check int)
        (lbl "plan hits + leaders + waits = submissions")
        (n "queries")
        (n "cache.plan_hits" + n "cache.flight_leaders"
         + n "cache.flight_waits"))
    domain_counts

(* ---------------------------------------------------------------- *)
(* Single-flight: a cold herd optimizes exactly once                *)
(* ---------------------------------------------------------------- *)

let flight_names =
  [
    "rule.invocations"; "rule.candidates"; "rule.matched"; "rule.substitutes";
    "serve.flight.leaders"; "serve.flight.waits"; "cache.plan.hits";
  ]

let snap_counters obs =
  List.map (fun n -> (n, Obs.Registry.counter_value obs n)) flight_names

let delta obs before n = Obs.Registry.counter_value obs n - List.assoc n before

let test_single_flight () =
  let k = if quick then 3 else 4 in
  let w, reg_a, front_a = mk_front () in
  let q = List.hd w.H.queries in
  let obs_a = reg_a.R.obs in
  let before = snap_counters obs_a in
  let barrier = Atomic.make 0 in
  let results =
    Pool.run_each
      (List.init k (fun _ () ->
           (* spin barrier: every domain submits the identical query at
              once, so the herd is as cold and as simultaneous as the
              scheduler allows *)
           Atomic.incr barrier;
           while Atomic.get barrier < k do
             Domain.cpu_relax ()
           done;
           S.submit front_a q))
  in
  let d = delta obs_a before in
  Alcotest.(check int) "exactly one optimization led" 1
    (d "serve.flight.leaders");
  (* accounting identity: each submit resolves exactly one way — led the
     flight, waited on it, or hit the plan layer the leader had already
     warmed (outer peek or the re-probe under the flights lock) *)
  Alcotest.(check int) "leaders + waits + plan hits = herd size" k
    (d "serve.flight.leaders" + d "serve.flight.waits" + d "cache.plan.hits");
  (* all callers got the same epoch and byte-identical plans *)
  (match results with
  | [] -> Alcotest.fail "empty herd"
  | (ep0, r0) :: rest ->
      let p0 = Plan.to_string r0.Opt.plan in
      List.iter
        (fun (ep, r) ->
          Alcotest.(check int) "same epoch" ep0 ep;
          Alcotest.(check string) "same plan" p0 (Plan.to_string r.Opt.plan))
        rest);
  (* the herd's rule.* work equals ONE submission's: a twin front over an
     identical registry, one sequential submit, same counter deltas *)
  let _, reg_b, front_b = mk_front () in
  let obs_b = reg_b.R.obs in
  let before_b = snap_counters obs_b in
  ignore (S.submit front_b q);
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "herd %s = one submission's" n)
        (delta obs_b before_b n) (d n))
    [ "rule.invocations"; "rule.candidates"; "rule.matched"; "rule.substitutes" ]

(* ---------------------------------------------------------------- *)
(* Differential: N-domain serving == sequential optimization        *)
(* ---------------------------------------------------------------- *)

(* Without churn the epoch is fixed, so every observation must report the
   registry's epoch and carry exactly the plan the plain sequential
   optimizer produces for that query. *)
let diff_prop =
  QCheck.Test.make
    ~name:"serve: N-domain serving == sequential optimization at the epoch"
    ~count:(Helpers.qcheck_count (if quick then 4 else 10))
    QCheck.small_nat
    (fun salt ->
      let w = Lazy.force wl in
      let registry = R.create w.H.schema in
      List.iter (R.add_prebuilt registry) (H.take 60 w.H.views);
      Mv_relalg.Intern.freeze ();
      let f = S.front registry w.H.stats in
      let queries = Array.of_list w.H.queries in
      let nq = Array.length queries in
      let per_domain = if quick then 4 else 6 in
      let jobs =
        List.map
          (fun domains ->
            List.init domains (fun d () ->
                List.init per_domain (fun i ->
                    let idx = (salt + d + (domains * i)) mod nq in
                    let ep, r = S.submit f queries.(idx) in
                    (idx, ep, Plan.to_string r.Opt.plan))))
          domain_counts
      in
      let observations = List.concat_map (fun js -> List.concat (Pool.run_each js)) jobs in
      let ep0 = R.epoch registry in
      List.for_all
        (fun (idx, ep, p) ->
          ep = ep0
          && String.equal p
               (Plan.to_string
                  (Opt.optimize registry w.H.stats queries.(idx)).Opt.plan))
        observations)

(* ---------------------------------------------------------------- *)
(* Obs: the plan-layer and flight counters lose no updates          *)
(* ---------------------------------------------------------------- *)

(* The plan-layer and flight counters are shared atomics: across any
   interleaving, every submit lands in exactly one of them. *)
let submit_counter_prop =
  QCheck.Test.make
    ~name:"serve: plan hits + leaders + waits = submissions across domains"
    ~count:(Helpers.qcheck_count (if quick then 4 else 10))
    QCheck.(int_range 20 80)
    (fun per_domain ->
      let w, registry, f = mk_front ~n:30 () in
      let obs = registry.R.obs in
      let names =
        [ "cache.plan.hits"; "serve.flight.leaders"; "serve.flight.waits" ]
      in
      let total () =
        List.fold_left
          (fun acc n -> acc + Obs.Registry.counter_value obs n)
          0 names
      in
      let before = total () in
      let queries = Array.of_list w.H.queries in
      let nq = Array.length queries in
      let k = 3 in
      ignore
        (Pool.run_each
           (List.init k (fun d () ->
                for i = 0 to per_domain - 1 do
                  ignore (S.submit f queries.((d + i) mod nq))
                done)));
      total () - before = k * per_domain)

(* ---------------------------------------------------------------- *)
(* Obs: registry snapshots under always-on phase histograms         *)
(* ---------------------------------------------------------------- *)

(* Every optimization feeds the optimizer.phase.* histograms. Concurrent
   optimizations plus a reader hammering the registry's JSON snapshot
   must never raise, and the histograms must still advance. *)
let test_snapshot_concurrent () =
  let w, registry, _ = mk_front ~n:30 () in
  let obs = registry.R.obs in
  let queries = Array.of_list w.H.queries in
  let nq = Array.length queries in
  let per_domain = if quick then 8 else 20 in
  let nworkers = 2 in
  let finished = Atomic.make 0 in
  let reader () =
    let snaps = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      ignore (Obs.Registry.to_json obs);
      incr snaps;
      if Atomic.get finished >= nworkers then continue_ := false
    done;
    !snaps
  in
  let worker d () =
    for i = 0 to per_domain - 1 do
      ignore (Opt.optimize registry w.H.stats queries.((d + i) mod nq))
    done;
    Atomic.incr finished;
    0
  in
  (match Pool.run_each (reader :: List.init nworkers worker) with
  | snaps :: _ -> Alcotest.(check bool) "reader ran" true (snaps >= 1)
  | [] -> Alcotest.fail "run_each returned nothing");
  let h = Obs.Registry.histogram obs "optimizer.phase.total" in
  Alcotest.(check bool) "phase histograms advanced" true
    (Obs.Instrument.count h >= nworkers * per_domain)

(* ---------------------------------------------------------------- *)
(* Open loop: a long arrival gap is slept in full                   *)
(* ---------------------------------------------------------------- *)

(* At 5 qps the mean arrival gap is 200 ms, well above the driver's
   50 ms sleep slice: the stream must not be cut short to one submission
   per slice (about 20 qps). Seeded arrivals make the schedule fixed;
   twice the target rate leaves room for Poisson bursts. *)
let test_open_loop_pacing () =
  let w = Lazy.force wl in
  let cfg =
    {
      S.default_cfg with
      S.nviews = 50;
      domains = 1;
      rate = 5.0;
      duration = 2.0;
      warmup = false;
      churn_period = 0.0;
      timeline_period = 0.0;
    }
  in
  let m = S.run ~cfg w in
  let submitted = M.int m "queries" in
  Alcotest.(check bool)
    (Printf.sprintf "%d submissions <= 2 x rate x duration" submitted)
    true
    (submitted <= int_of_float (2.0 *. cfg.S.rate *. cfg.S.duration))

let suite =
  [
    ( "serve_linearizable",
      [
        Alcotest.test_case
          "observations under churn replay against their epoch's state"
          `Quick test_linearizable;
      ] );
    ( "serve_writes",
      [
        Alcotest.test_case
          "delta batches + staleness flips under concurrent serving" `Quick
          test_serve_under_writes;
      ] );
    ( "serve_flight",
      [
        Alcotest.test_case "cold herd elects exactly one leader" `Quick
          test_single_flight;
      ] );
    ( "serve_stress",
      [
        Helpers.qtest diff_prop;
        Helpers.qtest submit_counter_prop;
        Alcotest.test_case "registry JSON under concurrent phase timing"
          `Quick test_snapshot_concurrent;
      ] );
    ( "serve_pacing",
      [
        Alcotest.test_case "open loop honours gaps above the sleep slice"
          `Quick test_open_loop_pacing;
      ] );
  ]
