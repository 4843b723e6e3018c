(** The serving front end (DESIGN.md §10): an open-loop query stream over
    OCaml 5 domains against one shared registry under add/drop churn.

    One [submit] pins the registry snapshot ([Registry.snapshot], one
    [Atomic.get] — no reader-side mutex), then makes one decision under
    the front's one mutex:

    - a plan stamped with the pinned epoch is a hit;
    - a plan stamped with an earlier epoch is revalidated outside the
      lock: it is served, and re-stamped, when no add or drop since its
      stamp changed the candidate list of any rule invocation its
      optimization made, and counts as an invalidation otherwise;
    - an identical query already in flight is joined: the submitter waits
      for its leader's result, so a herd of K identical cold requests runs
      the optimizer exactly once;
    - otherwise the submitter registers a flight and leads it: it runs
      {!Mv_opt.Optimizer.optimize} with the snapshot pinned (every
      enumerated subexpression sees one registry state regardless of
      concurrent churn), recording each rule invocation's search keys and
      candidates, then, in one critical section, stores the plan stamped
      with the pinned epoch and retires the flight before waking the
      waiters.

    The (epoch, result) pair a submit returns is the linearizability
    observation test/test_serve.ml replays against sequential
    optimization. *)

module R = Mv_core.Registry
module Opt = Mv_opt.Optimizer
module Plan = Mv_opt.Plan
module Spjg = Mv_relalg.Spjg
module Lru = Mv_util.Lru
module Prng = Mv_util.Prng
module I = Mv_obs.Instrument
module Obs = Mv_obs.Registry
module J = Mv_obs.Json

(* ---- the front ---- *)

(* One in-flight optimization. [fl_out] is set, and [fl_done] broadcast,
   under the front's lock when the leader retires the flight. *)
type flight = {
  fl_done : Condition.t;
  mutable fl_out : (int * Opt.result, exn) result option;
}

(* A stored plan. The optimizer's result is a deterministic function of
   the candidate lists its rule invocations found, so [searches] is
   everything revalidation needs. *)
type entry = {
  mutable stamp : int;
      (** the latest epoch the plan is known to hold at; read and raised
          under the front's lock *)
  result : Opt.result;
  searches : (Mv_core.Filter_tree.query_info * Mv_core.View.t list) list;
      (** each rule invocation's search keys and candidates *)
}

type front = {
  f_registry : R.t;
  f_stats : Mv_catalog.Stats.t;
  f_lock : Mutex.t;  (** guards [f_plans], [f_flights] and entry stamps *)
  f_plans : (Spjg.t, entry) Lru.t;  (** the plan table *)
  f_flights : (Spjg.t, flight) Hashtbl.t;
  (* counters are atomic ({!Mv_obs.Instrument.counter}), so they sum
     exactly across domains — the lost-update qcheck in test_serve.ml
     holds plan hits + leaders + waits to the submission count *)
  c_hits : I.counter;
  c_misses : I.counter;
  c_invalidations : I.counter;
  c_revalidations : I.counter;
  c_researches : I.counter;
  c_evictions : I.counter;
  c_leaders : I.counter;
  c_waits : I.counter;
  h_latency : I.histogram;  (** open-loop: completion - scheduled arrival *)
  h_service : I.histogram;  (** submit call duration alone *)
}

let front ?(capacity = 4096) registry stats =
  let obs = registry.R.obs in
  let c = Obs.counter obs in
  {
    f_registry = registry;
    f_stats = stats;
    f_lock = Mutex.create ();
    f_plans = Lru.create ~capacity;
    f_flights = Hashtbl.create 64;
    c_hits = c "cache.plan.hits";
    c_misses = c "cache.plan.misses";
    c_invalidations = c "cache.plan.invalidations";
    c_revalidations = c "cache.plan.revalidations";
    c_researches = c "cache.plan.researches";
    c_evictions = c "cache.plan.evictions";
    c_leaders = c "serve.flight.leaders";
    c_waits = c "serve.flight.waits";
    h_latency = Obs.histogram obs "serve.latency";
    h_service = Obs.histogram obs "serve.service";
  }

(* A miss, under the front's lock: the flight to join (waited on right
   here — the wait releases the lock), else a new flight this submitter
   leads. *)
let miss t q =
  I.incr t.c_misses;
  match Hashtbl.find_opt t.f_flights q with
  | Some fl ->
      I.incr t.c_waits;
      while Option.is_none fl.fl_out do
        Condition.wait fl.fl_done t.f_lock
      done;
      `Joined (Option.get fl.fl_out)
  | None ->
      let fl = { fl_done = Condition.create (); fl_out = None } in
      Hashtbl.add t.f_flights q fl;
      `Lead fl

(* The one probe of a submit, under the front's lock: a plan at the
   pinned epoch, a plan from an earlier epoch to revalidate, else a miss.
   A plan stamped after the pinned epoch is a miss that leaves the plan
   in place. *)
let probe t ep q =
  Mutex.protect t.f_lock (fun () ->
      match Lru.find t.f_plans q with
      | Some e when e.stamp = ep ->
          I.incr t.c_hits;
          `Hit e.result
      | Some e when e.stamp < ep -> `Stale (e, e.stamp)
      | _ -> miss t q)

(* Outside the lock: does the plan stamped [stamp] still hold at [snap]?
   Each distinct change since the stamp is screened against each stored
   search; a search the screen does not clear is re-run on [snap] and
   must find the same views in the same order. *)
let still_holds t snap e stamp =
  match R.changes_since snap stamp with
  | None -> false
  | Some changes ->
      List.for_all
        (fun (keys, cands) ->
          List.for_all (fun ch -> R.unchanged_by t.f_registry ch keys) changes
          || begin
               I.incr t.c_researches;
               List.equal ( == ) (R.search ~snap t.f_registry keys) cands
             end)
        e.searches

(* Settle a plan found stale by [probe]: a plan that still holds is
   re-stamped (never lowered: another submitter may have raised it
   further meanwhile) and served; one that does not is an invalidation,
   removed unless another submitter raised its stamp, and the submit goes
   on as a miss. *)
let settle t snap q e stamp =
  let ep = snap.R.snap_epoch in
  let holds = still_holds t snap e stamp in
  Mutex.protect t.f_lock (fun () ->
      if holds then begin
        if e.stamp < ep then e.stamp <- ep;
        I.incr t.c_revalidations;
        I.incr t.c_hits;
        `Hit e.result
      end
      else begin
        I.incr t.c_invalidations;
        (match Lru.peek t.f_plans q with
        | Some e' when e' == e && e.stamp < ep ->
            ignore (Lru.remove t.f_plans q)
        | _ -> ());
        miss t q
      end)

(* Lead one flight: optimize with the snapshot pinned, recording every
   rule invocation's candidates, then store the plan stamped with the
   pinned epoch (unless the table holds one stamped later) and retire the
   flight in one critical section, so every later submitter finds either
   the flight or the plan; only then are the waiters woken. *)
let lead ?spans t snap fl q =
  I.incr t.c_leaders;
  let ep = snap.R.snap_epoch in
  let searches = ref [] in
  let record keys cands = searches := (keys, cands) :: !searches in
  let out =
    match Opt.optimize ?spans ~snap ~record t.f_registry t.f_stats q with
    | r -> Ok (ep, r)
    | exception e -> Error e
  in
  Mutex.protect t.f_lock (fun () ->
      (match out with
      | Ok (_, result) -> (
          match Lru.peek t.f_plans q with
          | Some e when e.stamp > ep -> ()
          | _ -> (
              let entry = { stamp = ep; result; searches = !searches } in
              match Lru.set t.f_plans q entry with
              | Some _ -> I.incr t.c_evictions
              | None -> ()))
      | Error _ -> ());
      Hashtbl.remove t.f_flights q;
      fl.fl_out <- Some out;
      Condition.broadcast fl.fl_done);
  match out with Ok entry -> entry | Error e -> raise e

(* Ledger attribution for a submission served WITHOUT optimizing (a
   plan-table hit, or a waiter handed the leader's result): the optimizer
   records the query and the chosen views itself for a leader, so these
   are the complementary paths — one [record_query] per submission either
   way, and the served plan's views earn a cache hit. *)
let record_served t q (r : Opt.result) =
  let h = t.f_registry.R.health in
  Mv_core.Health.record_query h q;
  if r.Opt.used_views then
    List.iter (Mv_core.Health.record_cache_hit h) (Plan.views_used r.Opt.plan)

let submit ?spans t (q : Spjg.t) : int * Opt.result =
  let snap = R.snapshot t.f_registry in
  let ep = snap.R.snap_epoch in
  Mv_obs.Span.wrap spans "serve"
    ~attrs:(fun () -> [ ("epoch", Mv_obs.Span.Int ep) ])
    (fun spans ->
      let role =
        match probe t ep q with
        | `Stale (e, stamp) -> settle t snap q e stamp
        | (`Hit _ | `Joined _ | `Lead _) as role -> role
      in
      Mv_obs.Span.note spans
        (match role with `Hit _ -> "cache.plan.hit" | _ -> "cache.plan.miss")
        (fun () -> []);
      match role with
      | `Hit r ->
          record_served t q r;
          (ep, r)
      | `Joined (Ok ((_, r) as out)) ->
          record_served t q r;
          out
      | `Joined (Error e) -> raise e
      | `Lead fl -> lead ?spans t snap fl q)

(* ---- the open-loop driver ---- *)

type cfg = {
  nviews : int;
  domains : int;
  rate : float;
      (** target queries/second across all domains, Poisson arrivals;
          0 = closed loop *)
  duration : float;  (** timed-window seconds *)
  warmup : bool;  (** one sequential cache-filling pass before the clock *)
  churn_period : float;  (** seconds between add/drop mutations; 0 = none *)
  churn_pool : int;  (** how many tail views the mutator cycles *)
  sample : int;  (** observations kept per domain for the replay check *)
  sample_stride : int;  (** keep every k-th observation *)
  advise : int;
      (** mine up to this many candidates from the workload, advise under
          the default budget and register the picks before the clock
          starts; their health accounts feed the dead-view gate. 0 = off *)
  timeline_period : float;
      (** seconds between timeline sampler ticks (dedicated domain);
          0 = sampler off *)
  seed : int;
}

let default_cfg =
  {
    nviews = 1000;
    domains = 2;
    rate = 200.0;
    duration = 1.5;
    warmup = true;
    churn_period = 0.12;
    churn_pool = 8;
    sample = 32;
    sample_stride = 13;
    advise = 0;
    timeline_period = 0.05;
    seed = 4242;
  }

type observation = { ob_epoch : int; ob_query : int; ob_plan : string }

let now = Unix.gettimeofday

(* The view population at each epoch the run can have produced, from the
   initial population and the mutator's (epoch, op) log. *)
let populations ~views ~epoch0 ops =
  let tbl = Hashtbl.create 16 in
  Hashtbl.replace tbl epoch0 views;
  let cur = ref views in
  List.iter
    (fun (ep, op) ->
      (cur :=
         match op with
         | `Drop v ->
             List.filter
               (fun (x : Mv_core.View.t) ->
                 x.Mv_core.View.name <> v.Mv_core.View.name)
               !cur
         | `Add v -> !cur @ [ v ]);
      Hashtbl.replace tbl ep !cur)
    ops;
  tbl

(* Replay one observation sequentially: a scratch registry holding exactly
   the population of the observed epoch, no cache, no snapshot — the
   plain PR-1 optimizer path. Registries are memoized per epoch. *)
let consistency_check (w : Harness.workload) ~pops ~queries observations =
  let regs = Hashtbl.create 8 in
  let registry_at ep =
    match Hashtbl.find_opt regs ep with
    | Some r -> r
    | None ->
        let r = R.create w.Harness.schema in
        List.iter (R.add_prebuilt r) (Hashtbl.find pops ep);
        Hashtbl.replace regs ep r;
        r
  in
  let plans = Hashtbl.create 64 in
  let seq_plan ep qi =
    match Hashtbl.find_opt plans (ep, qi) with
    | Some p -> p
    | None ->
        let r = Opt.optimize (registry_at ep) w.Harness.stats queries.(qi) in
        let p = Plan.to_string r.Opt.plan in
        Hashtbl.replace plans (ep, qi) p;
        p
  in
  List.for_all
    (fun ob ->
      Hashtbl.mem pops ob.ob_epoch
      && String.equal ob.ob_plan (seq_plan ob.ob_epoch ob.ob_query))
    observations

let run ?(cfg = default_cfg) (w : Harness.workload) : Measure.t =
  let registry = R.create w.Harness.schema in
  let base_views = Harness.take cfg.nviews w.Harness.views in
  List.iter (R.add_prebuilt registry) base_views;
  (* advised views: mined from the workload's own queries, selected under
     the default budget and registered before the clock starts. They are
     part of the replayed population but excluded from the churn pool, so
     a never-matching pick cannot hide behind a drop — the dead-view gate
     reads their ledger accounts at the end. *)
  let advised =
    if cfg.advise <= 0 then []
    else begin
      let candidates =
        List.filteri
          (fun i _ -> i < cfg.advise)
          (Mv_workload.Miner.definitions
             (Mv_workload.Miner.mine w.Harness.queries))
      in
      let advice =
        Mv_opt.Advisor.advise w.Harness.schema w.Harness.stats ~candidates
          ~queries:w.Harness.queries
      in
      List.filter_map
        (fun (p : Mv_opt.Advisor.pick) ->
          match
            R.add_view registry ~row_count:p.Mv_opt.Advisor.rows
              ~name:("adv_" ^ p.Mv_opt.Advisor.name)
              p.Mv_opt.Advisor.spjg
          with
          | v -> Some v
          | exception Mv_core.View.Rejected _ -> None
          | exception R.Duplicate_view _ -> None)
        advice.Mv_opt.Advisor.picks
    end
  in
  let views = base_views @ advised in
  Mv_relalg.Intern.freeze ();
  let t = front registry w.Harness.stats in
  let queries = Array.of_list w.Harness.queries in
  let nq = Array.length queries in
  if nq = 0 then invalid_arg "Serve.run: empty workload";
  if cfg.warmup then
    Array.iter (fun q -> ignore (submit t q)) queries;
  let epoch0 = R.epoch registry in
  let obs = registry.R.obs in
  let cval name = Obs.counter_value obs name in
  let counters0 =
    List.map
      (fun n -> (n, cval n))
      [
        "serve.flight.leaders"; "serve.flight.waits"; "cache.plan.hits";
        "cache.plan.misses"; "cache.plan.invalidations";
        "cache.plan.revalidations"; "cache.plan.researches";
      ]
  in
  let mlog = ref [] (* newest first; only the mutator writes *) in
  (* timeline sampler: a dedicated domain snapshotting the shared obs
     registry every [timeline_period]; started after warmup so the
     windows cover exactly the measured interval *)
  let tl = Mv_obs.Timeline.create obs in
  let sampler =
    if cfg.timeline_period > 0.0 then
      Some (Mv_obs.Timeline.start ~period:cfg.timeline_period tl)
    else None
  in
  let t_start = now () in
  let t_stop = t_start +. cfg.duration in
  let mutator () =
    let pool =
      Array.of_list
        (if cfg.churn_pool <= 0 then []
         else
           List.filteri
             (fun i _ -> i >= List.length base_views - cfg.churn_pool)
             base_views)
    in
    let i = ref 0 in
    if cfg.churn_period > 0.0 && Array.length pool > 0 then
      while now () < t_stop do
        Unix.sleepf cfg.churn_period;
        if now () < t_stop then begin
          let v = pool.(!i / 2 mod Array.length pool) in
          let op =
            if !i mod 2 = 0 then (
              R.remove_view registry v.Mv_core.View.name;
              `Drop v)
            else (
              R.add_prebuilt registry v;
              `Add v)
          in
          mlog := (R.epoch registry, op) :: !mlog;
          incr i
        end
      done;
    (0, [])
  in
  let worker d () =
    let prng = Prng.create (cfg.seed + (7919 * (d + 1))) in
    let inter () =
      if cfg.rate <= 0.0 then 0.0
      else
        let per = float_of_int cfg.domains /. cfg.rate in
        -.log (1.0 -. Prng.float prng) *. per
    in
    let next = ref (t_start +. inter ()) in
    let count = ref 0 in
    let sampled = ref [] in
    let qi = ref d in
    (* sleep until the scheduled arrival in slices of at most 50 ms, so a
       long gap is honoured in full and the window end is noticed *)
    let rec pace () =
      let n = now () in
      if n < !next && n < t_stop then begin
        Unix.sleepf (Float.min (!next -. n) 0.05);
        pace ()
      end
    in
    while
      pace ();
      now () < t_stop
    do
      (* open loop: latency is measured from the scheduled arrival, so
         queueing delay (falling behind the schedule) counts against us *)
      let t0 = now () in
      let arrival = if cfg.rate > 0.0 then Float.min !next t0 else t0 in
      let idx = !qi mod nq in
      let ep, r = submit t queries.(idx) in
      let t1 = now () in
      I.observe t.h_latency (t1 -. arrival);
      I.observe t.h_service (t1 -. t0);
      if
        !count mod cfg.sample_stride = 0
        && List.length !sampled < cfg.sample
      then
        sampled :=
          {
            ob_epoch = ep;
            ob_query = idx;
            ob_plan = Plan.to_string r.Opt.plan;
          }
          :: !sampled;
      incr count;
      qi := !qi + cfg.domains;
      next := !next +. inter ()
    done;
    (!count, !sampled)
  in
  let results =
    Pool.run_each (mutator :: List.init (max 1 cfg.domains) worker)
  in
  let wall = now () -. t_start in
  Option.iter Mv_obs.Timeline.stop sampler;
  let total = List.fold_left (fun acc (c, _) -> acc + c) 0 results in
  let observations = List.concat_map snd results in
  let ops = List.rev !mlog in
  let pops = populations ~views ~epoch0 ops in
  let consistent = consistency_check w ~pops ~queries observations in
  let d name = J.Int (cval name - List.assoc name counters0) in
  let names vs =
    J.List
      (List.map (fun (v : Mv_core.View.t) -> J.String v.Mv_core.View.name) vs)
  in
  (* advised views whose ledger account never matched during the run *)
  let dead =
    List.filter
      (fun (v : Mv_core.View.t) ->
        match Mv_core.Health.find registry.R.health v.Mv_core.View.name with
        | Some r -> Mv_core.Health.dead r
        | None -> true)
      advised
  in
  Measure.make "serving_throughput"
    ~params:
      [
        ("nviews", J.Int cfg.nviews);
        ("domains", J.Int (max 1 cfg.domains));
        ("rate_qps", J.Float cfg.rate);
      ]
    ~metrics:
      [
        ("duration_s", J.Float wall);
        ("queries", J.Int total);
        ( "qps",
          J.Float (if wall > 0.0 then float_of_int total /. wall else 0.0) );
        ("cache.flight_leaders", d "serve.flight.leaders");
        ("cache.flight_waits", d "serve.flight.waits");
        ("cache.plan_hits", d "cache.plan.hits");
        ("cache.plan_misses", d "cache.plan.misses");
        ("cache.plan_invalidations", d "cache.plan.invalidations");
        ("cache.plan_revalidations", d "cache.plan.revalidations");
        ("cache.plan_researches", d "cache.plan.researches");
        ("churn.mutations", J.Int (List.length ops));
        ("churn.epoch_lo", J.Int epoch0);
        ("churn.epoch_hi", J.Int (R.epoch registry));
        ("churn.sampled", J.Int (List.length observations));
        ("advised", names advised);
        ("dead", names dead);
        ("timeline", Mv_obs.Timeline.to_json tl);
        ("health", Mv_core.Health.to_json registry.R.health);
      ]
    ~pcts:
      [
        ("latency", Measure.pct_of t.h_latency);
        ("service", Measure.pct_of t.h_service);
      ]
    ~verdicts:
      [
        ("churn.consistent", consistent);
        ("no_dead_views", dead = []);
      ]
    ~subs:
      [
        ( "windows",
          List.map
            (fun (s : Mv_obs.Timeline.sample) ->
              let hist name =
                List.assoc_opt name s.Mv_obs.Timeline.histograms
              in
              Measure.make "window"
                ~metrics:
                  [
                    ("dur_s", J.Float s.Mv_obs.Timeline.dur);
                    ( "served",
                      J.Int
                        (match hist "serve.service" with
                        | Some w -> w.Mv_obs.Timeline.w_count
                        | None -> 0) );
                    ( "latency_p99_s",
                      J.Float
                        (match hist "serve.latency" with
                        | Some w -> w.Mv_obs.Timeline.w_p99
                        | None -> 0.0) );
                  ])
            (Mv_obs.Timeline.samples tl) );
      ]
