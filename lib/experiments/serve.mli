(** High-throughput serving front end over the RCU registry snapshots
    (DESIGN.md §10): the epoch-stamped, revalidated plan table,
    single-flight dedup of
    identical in-flight optimizations, and an open-loop Poisson driver
    that sustains a query stream across OCaml 5 domains while views
    churn.

    Every {!submit} pins one {!Mv_core.Registry.snapshot} (wait-free — a
    single [Atomic.get], no reader-side mutex) and is served at exactly
    that registry state; the returned (epoch, result) pair is the
    observation the linearizability suite (test/test_serve.ml) replays
    against sequential optimization at that epoch. *)

(** {1 The front} *)

type front

val front : ?capacity:int -> Mv_core.Registry.t -> Mv_catalog.Stats.t -> front
(** A serving front over one registry: one mutex over the plan table (an
    {!Mv_util.Lru} of [capacity] plans, default 4096, each stamped with
    the latest registry epoch it is known to hold at, beside the search
    keys and candidate list of every rule invocation that produced it)
    and the single-flight table. Counters go to the registry's obs
    instance: [cache.plan.hits|misses|invalidations|evictions],
    [cache.plan.revalidations] (plans re-stamped and served, counted in
    the hits too), [cache.plan.researches] (searches re-run during
    revalidation) and [serve.flight.leaders|waits] (atomic, shared by
    every domain without loss; hits + leaders + waits = submissions,
    misses = leaders + waits), and the [serve.latency] / [serve.service]
    histograms fed by {!run}.
    @raise Invalid_argument when [capacity < 1]. *)

val submit :
  ?spans:Mv_obs.Span.scope ->
  front ->
  Mv_relalg.Spjg.t ->
  int * Mv_opt.Optimizer.result
(** Serve one query: pin the current snapshot, then probe once under the
    front's lock. A plan stamped with the pinned epoch is a hit. One
    stamped earlier is revalidated outside the lock against the
    snapshot's change log ({!Mv_core.Registry.changes_since}): it is a
    hit, re-stamped with the pinned epoch, when no change since its stamp
    changed any of its rule invocations' candidate lists, and an
    invalidation otherwise (as is a plan older than the log). A plan
    stamped after the pinned epoch is left in place. Otherwise an
    identical query in flight is joined, or the submitter leads a flight:
    it runs {!Mv_opt.Optimizer.optimize} with the snapshot pinned,
    recording the candidate lists, then stores the plan (unless the
    table holds one stamped later) and retires the flight in one critical
    section and wakes the waiters. A cold herd of K identical queries
    therefore runs the optimizer exactly once (the [rule.*] counters
    advance as for one optimization; asserted by the single-flight stress
    test). Returns the epoch the result was computed at — a waiter
    reports its leader's epoch, which can lag its own snapshot by an
    in-flight mutation and is still a valid observation at that epoch. A
    hit or a waiter returns the leader's whole result.

    With [spans], the submission is recorded as a ["serve"] span carrying
    the pinned epoch, with a [cache.plan.hit] or [cache.plan.miss]
    instant and, for a leader, the traced optimization. *)

(** {1 The open-loop driver} *)

type cfg = {
  nviews : int;
  domains : int;  (** serving domains (the churn mutator is a separate one) *)
  rate : float;
      (** target arrival rate in queries/second across all domains,
          split evenly, with exponential (Poisson) inter-arrivals; [0.] =
          closed loop (back-to-back submission) *)
  duration : float;  (** timed-window seconds *)
  warmup : bool;  (** one sequential plan-table-filling pass before the clock *)
  churn_period : float;  (** seconds between mutations; [0.] = no churn *)
  churn_pool : int;  (** tail views the mutator alternately drops/re-adds *)
  sample : int;  (** observations kept per domain for the replay check *)
  sample_stride : int;  (** keep every k-th observation *)
  maintain_batch : int;
      (** base rows per delta batch the mutator pushes through
          {!Mv_engine.Ivm} every churn tick, against a private database
          and private view clones (serving plans must not depend on the
          write traffic or the replay would be unsound); [0] disables
          write traffic. Staleness flips on the live registry ride along
          — invisible to the default matcher, so serving is unaffected. *)
  maintain_views : int;  (** view clones the write traffic maintains *)
  advise : int;
      (** mine up to this many candidates from the workload's queries,
          advise under the default budget and register the picks (names
          prefixed [adv_]) before the clock starts. They join the
          replayed population but not the churn pool; {!run} reports
          them and the ones whose ledger account never matched (the
          dead-view gate). [0] = off *)
  timeline_period : float;
      (** seconds between {!Mv_obs.Timeline} sampler ticks, taken by a
          dedicated domain over the registry's obs instance; [0.] = no
          sampler *)
  seed : int;  (** arrival-process PRNG seed (deterministic schedules) *)
}

val default_cfg : cfg
(** 1000 views, 2 domains, 200 qps Poisson for 1.5 s, churn every 120 ms
    over an 8-view pool — the [bench --serve] acceptance configuration. *)

val run : ?cfg:cfg -> Harness.workload -> Measure.t
(** Build a registry over the first [cfg.nviews] workload views,
    optionally warm the plan table, then run [cfg.domains] open-loop
    serving domains plus one churn-mutator domain for [cfg.duration]
    seconds and replay the sampled observations. The arrival schedules
    and the mutation sequence are deterministic given [cfg]; the
    interleaving (and so the counters and latencies) is not.

    The [serving_throughput] section: [queries] completed in the window
    ([duration_s]) and [qps]; [latency] (completion minus {e scheduled}
    arrival, so falling behind the schedule shows up as queueing delay)
    and [service] (the submit call alone) percentiles; [cache.*] and
    [churn.*] counter deltas over the window; the [advised] view names
    and the [dead] ones whose ledger account never matched; the
    [timeline] and [health] exports; and one [windows] sub-measure per
    timeline window (length, submissions completed, p99 latency).
    Verdicts: [churn.consistent] (every sampled (epoch, query, plan)
    observation is byte-identical to sequential optimization against a
    scratch registry rebuilt at that epoch's population),
    [churn.maint_consistent] (every maintained view clone ends bag-equal
    to a from-scratch recomputation; holds trivially without write
    traffic) and [no_dead_views] (the dead-view gate). *)
