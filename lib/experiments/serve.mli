(** High-throughput serving front end over the RCU registry snapshots
    (DESIGN.md §10): the shared epoch-validated match/plan cache,
    single-flight dedup of identical in-flight optimizations, and an
    open-loop Poisson driver that sustains a query stream across OCaml 5
    domains while views churn.

    Every {!submit} pins one {!Mv_core.Registry.snapshot} (wait-free — a
    single [Atomic.get], no reader-side mutex) and optimizes against
    exactly that registry state; the returned (epoch, result) pair is the
    observation the linearizability suite (test/test_serve.ml) replays
    against sequential optimization at that epoch. *)

(** {1 The front} *)

type front

val front : Mv_core.Registry.t -> Mv_catalog.Stats.t -> front
(** A serving front over one registry: a shared {!Mv_opt.Match_cache} of
    capacity 4096 and the single-flight table. Counters go to the
    registry's obs instance: [serve.flight.leaders|waits] (atomic, shared
    by every domain without loss) next to the cache's own [cache.*], and
    the [serve.latency] / [serve.service] histograms fed by {!run}. *)

val registry : front -> Mv_core.Registry.t

val cache : front -> Mv_opt.Match_cache.t

val submit : front -> Mv_relalg.Spjg.t -> int * Mv_opt.Optimizer.result
(** Serve one query: pin the current snapshot, probe the shared plan
    layer (hit iff stamped with the pinned epoch), then join-or-lead the
    query's flight — the leader runs
    {!Mv_opt.Optimizer.optimize} with the snapshot pinned while
    concurrent identical submits wait on its condvar, so a cold herd of K
    identical queries runs the optimizer exactly once (the [rule.*]
    counters advance as for one optimization; asserted by the
    single-flight stress test). Returns the epoch the result was computed
    at — a waiter reports its leader's epoch, which can lag its own
    snapshot by an in-flight mutation and is still a valid observation at
    that epoch. *)

val submit_traced :
  front ->
  spans:Mv_obs.Span.scope ->
  Mv_relalg.Spjg.t ->
  int * Mv_opt.Optimizer.result
(** One span-recorded submission through the shared cache (the trace
    shows the lookup and, cold, the pinned optimization). For the
    Perfetto serve-trace artifact; not part of the measured hot path. *)

(** {1 The open-loop driver} *)

type cfg = {
  nviews : int;
  domains : int;  (** serving domains (the churn mutator is a separate one) *)
  rate : float;
      (** target arrival rate in queries/second across all domains,
          split evenly, with exponential (Poisson) inter-arrivals; [0.] =
          closed loop (back-to-back submission) *)
  duration : float;  (** timed-window seconds *)
  warmup : bool;  (** one sequential cache-filling pass before the clock *)
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
(** Build a registry over the first [cfg.nviews] workload views, activate
    snapshot publication, optionally warm the shared cache, then run
    [cfg.domains] open-loop serving domains plus one churn-mutator domain
    for [cfg.duration] seconds and replay the sampled observations. The
    arrival schedules and the mutation sequence are deterministic given
    [cfg]; the interleaving (and so the counters and latencies) is not.

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
