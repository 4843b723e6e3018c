(* The repository benchmark. One process runs one workload:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Untraced (--trace 0) it prints the end-to-end metrics; traced
   (--trace 1) it runs the same workload with every layer call timed from
   the outside (public functions only) and prints the per-layer metrics.
   Either way the last line of stdout is one JSON object
   {"correct", "attempted", "failed", "metrics"}; report lines above it
   give sample counts and percentiles. Workloads are described in
   perfbench/README.md. *)

module R = Mv_core.Registry
module V = Mv_core.View
module Opt = Mv_opt.Optimizer
module Plan = Mv_opt.Plan
module A = Mv_relalg.Analysis
module Spjg = Mv_relalg.Spjg
module H = Mv_experiments.Harness
module Serve = Mv_experiments.Serve
module Prng = Mv_util.Prng
module Obs = Mv_obs.Registry
module I = Mv_obs.Instrument
module Db = Mv_engine.Database
module Ivm = Mv_engine.Ivm
module Exec = Mv_engine.Exec

(* Monotonic nanosecond clock, in seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let usage () =
  prerr_endline
    "usage: bench.exe --workload paper-optimize|serve-churn|exec-mixed \
     --seed N --seconds S --trace 0|1";
  exit 2

(* ---- raw samples and exact percentiles ---- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add s x =
    if s.n = Array.length s.a then begin
      let b = Array.make (2 * s.n) 0.0 in
      Array.blit s.a 0 b 0 s.n;
      s.a <- b
    end;
    s.a.(s.n) <- x;
    s.n <- s.n + 1

  let sum s =
    let t = ref 0.0 in
    for i = 0 to s.n - 1 do
      t := !t +. s.a.(i)
    done;
    !t

  let sorted s =
    let b = Array.sub s.a 0 s.n in
    Array.sort Float.compare b;
    b
end

(* Exact q-quantile of sorted samples: linear interpolation between the two
   order statistics around rank q(n-1). *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(* The highest of these percentiles with at least ten samples beyond it. *)
let tail_q n =
  List.find_opt (fun p -> n * (100 - p) >= 1000) [ 99; 95; 90; 75 ]
  |> Option.value ~default:50
  |> fun p -> float_of_int p /. 100.0

(* (p50, tail) in milliseconds, with a report line naming the tail's
   percentile and the sample count. *)
let summary label s =
  let a = Samples.sorted s in
  let n = Array.length a in
  let q = tail_q n in
  let p50 = 1000.0 *. quantile a 0.5 and tl = 1000.0 *. quantile a q in
  Printf.printf "%-14s n=%-6d p50=%.4fms p%.0f=%.4fms\n" label n p50
    (100.0 *. q) tl;
  (p50, tl)

(* ---- the result line ---- *)

let metrics : (string * float * string) list ref = ref []
let metric name value unit = metrics := (name, value, unit) :: !metrics
let attempted = ref 0
let failed = ref 0

(* One checked operation: [ok] is the oracle's verdict. *)
let check ok =
  incr attempted;
  if not ok then incr failed

(* An operation that raised: a failure, named on stderr. *)
let fail what e =
  Printf.eprintf "%s failed: %s\n%!" what (Printexc.to_string e);
  check false

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let print_result () =
  let ms =
    List.rev_map
      (fun (n, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
      !metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0 && !attempted > 0)
    !attempted !failed (String.concat ", " ms)

(* ---- set-up: run it [reps] times, keep the last, report the median ---- *)

let setup_reps = 3
let setup_s = ref 0.0

let timed_setup f =
  let times = Array.make setup_reps 0.0 in
  let last = ref None in
  for i = 0 to setup_reps - 1 do
    Gc.full_major ();
    let t0 = now () in
    let x = f () in
    times.(i) <- now () -. t0;
    last := Some x
  done;
  (* drop the earlier set-ups' garbage before measuring *)
  Gc.compact ();
  Array.sort Float.compare times;
  let med = times.(setup_reps / 2) in
  Printf.printf "%-14s reps=%d median=%.4fs\n" "setup" setup_reps med;
  setup_s := med;
  Option.get !last

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ---- per-layer accounting (traced runs) ---- *)

let levels =
  List.map Mv_core.Filter_tree.level_name
    (Mv_core.Filter_tree.plan_levels Mv_core.Filter_tree.default_plan)

let reject_labels =
  [
    "missing-tables"; "extra-tables"; "equijoin-subsumption";
    "range-subsumption"; "residual-subsumption";
    "compensation-not-computable"; "output-not-computable";
    "grouping-incompatible"; "view-more-aggregated"; "stale";
  ]

(* Every per-layer metric, in print order, with its unit. A workload sets
   the ones its layers produce; the rest print as 0 (the layer was idle). *)
let layer_names =
  [
    ("analysis.calls", "count"); ("analysis.busy_s", "s");
    ("filter_tree.searches", "count"); ("filter_tree.busy_s", "s");
    ("filter_tree.candidates_per_search", "count");
  ]
  @ List.map
      (fun l -> ("filter_tree.level." ^ l ^ ".pass_frac", "frac"))
      (levels @ [ "strong-range" ])
  @ [
      ("matcher.calls", "count"); ("matcher.busy_s", "s");
      ("matcher.match_frac", "frac");
    ]
  @ List.map (fun l -> ("matcher.reject." ^ l, "count")) reject_labels
  @ [
      ("cost.calls", "count"); ("cost.busy_s", "s");
      ("optimizer.calls", "count"); ("optimizer.busy_s", "s");
      ("optimizer.prune.cost_bound", "count");
      ("optimizer.unattributed_s", "s");
      ("match_cache.plan.hit_frac", "frac");
      ("match_cache.plan.invalidations", "count");
      ("match_cache.match.hit_frac", "frac");
      ("match_cache.match.invalidations", "count");
      ("match_cache.evictions", "count"); ("serve.l1.hit_frac", "frac");
      ("serve.flight.waits", "count"); ("serve.service_p50_ms", "ms");
      ("serve.service_tail_ms", "ms"); ("serve.queue_wait_tail_ms", "ms");
      ("registry.mutations", "count"); ("registry.mutation_p50_ms", "ms");
      ("registry.mutation_tail_ms", "ms"); ("exec.busy_s", "s");
      ("exec.rows_out", "count"); ("exec.join.hash", "count");
      ("exec.join.nlj", "count"); ("exec.join.inlj", "count");
      ("ivm.apply_busy_s", "s"); ("ivm.refresh_stats_busy_s", "s");
      ("ivm.rows.plus", "count"); ("ivm.rows.minus", "count");
      ("ivm.views.updated", "count"); ("ivm.groups.born", "count");
      ("ivm.groups.died", "count"); ("read.busy_s", "s");
      ("write.busy_s", "s"); ("write.p50_ms", "ms"); ("write.tail_ms", "ms");
      ("gc.minor_words_per_op", "words");
      ("gc.major_collections", "count"); ("trace.overhead_frac", "frac");
    ]

let layer : (string, float) Hashtbl.t = Hashtbl.create 97
let set name v = Hashtbl.replace layer name v
let seti name v = set name (float_of_int v)

let emit_layers () =
  List.iter
    (fun (n, u) ->
      metric n (Option.value ~default:0.0 (Hashtbl.find_opt layer n)) u)
    layer_names

(* Counter deltas: [counters obs names] snapshots, [delta] subtracts. *)
let counters obs names = List.map (fun n -> (n, Obs.counter_value obs n)) names

let delta obs snap n = Obs.counter_value obs n - List.assoc n snap

let tree_counter_names =
  List.concat_map
    (fun l ->
      [ "filter_tree.level." ^ l ^ ".in"; "filter_tree.level." ^ l ^ ".out" ])
    levels
  @ [
      "filter_tree.strong_range.in"; "filter_tree.strong_range.out";
      "opt.prune.cost_bound";
    ]

(* [d name] is the counter's delta over the measured window. *)
let set_tree_flow d =
  List.iter
    (fun (l, c) ->
      set
        ("filter_tree.level." ^ l ^ ".pass_frac")
        (frac (d (c ^ ".out")) (d (c ^ ".in"))))
    (List.map (fun l -> (l, "filter_tree.level." ^ l)) levels
    @ [ ("strong-range", "filter_tree.strong_range") ]);
  seti "optimizer.prune.cost_bound" (d "opt.prune.cost_bound")

let global_names =
  [
    "exec.rows.output"; "exec.join.strategy.hash"; "exec.join.strategy.nlj";
    "exec.join.strategy.inlj"; "ivm.rows.plus"; "ivm.rows.minus";
    "ivm.views.updated"; "ivm.groups.born"; "ivm.groups.died";
  ]

(* Outside-in layer times for the optimizer: each optimization is timed
   whole, then its rule invocations are replayed through the public
   entry points of each layer (analysis, filter-tree search, matcher,
   costing), mirroring the optimizer's per-query analysis memo. *)
type layers = {
  mutable an_calls : int;
  mutable an_busy : float;
  mutable ft_searches : int;
  mutable ft_cands : int;
  mutable ft_busy : float;
  mutable m_calls : int;
  mutable m_matched : int;
  mutable m_busy : float;
  rejects : (string, int) Hashtbl.t;
  mutable c_calls : int;
  mutable c_busy : float;
  mutable o_calls : int;
  mutable o_busy : float;
}

let new_layers () =
  {
    an_calls = 0; an_busy = 0.0; ft_searches = 0; ft_cands = 0;
    ft_busy = 0.0; m_calls = 0; m_matched = 0; m_busy = 0.0;
    rejects = Hashtbl.create 16; c_calls = 0; c_busy = 0.0; o_calls = 0;
    o_busy = 0.0;
  }

let traced_optimize ly ?snap reg stats q =
  let t0 = now () in
  let r = Opt.optimize ?snap reg stats q in
  ly.o_busy <- ly.o_busy +. (now () -. t0);
  ly.o_calls <- ly.o_calls + 1;
  let schema = reg.R.schema in
  let analyses = Hashtbl.create 16 in
  List.iter
    (fun (block : Spjg.t) ->
      let t0 = now () in
      let key = (block.Spjg.tables, block.Spjg.where) in
      let a =
        match Hashtbl.find_opt analyses key with
        | Some a -> A.rebind a block
        | None ->
            let a = A.analyze schema block in
            Hashtbl.add analyses key a;
            a
      in
      let t1 = now () in
      let cands = R.candidates ?snap reg a in
      let t2 = now () in
      ly.an_calls <- ly.an_calls + 1;
      ly.an_busy <- ly.an_busy +. (t1 -. t0);
      ly.ft_searches <- ly.ft_searches + 1;
      ly.ft_cands <- ly.ft_cands + List.length cands;
      ly.ft_busy <- ly.ft_busy +. (t2 -. t1);
      List.iter
        (fun v ->
          let t0 = now () in
          let m =
            Mv_core.Matcher.match_view ~relaxed_nulls:reg.R.relaxed_nulls
              ~backjoins:reg.R.backjoins ~query:a v
          in
          ly.m_busy <- ly.m_busy +. (now () -. t0);
          ly.m_calls <- ly.m_calls + 1;
          match m with
          | Ok s ->
              ly.m_matched <- ly.m_matched + 1;
              let t0 = now () in
              ignore (Opt.substitute_cost schema stats block s);
              ly.c_busy <- ly.c_busy +. (now () -. t0);
              ly.c_calls <- ly.c_calls + 1
          | Error e ->
              let l = Mv_core.Reject.label e in
              Hashtbl.replace ly.rejects l
                (1 + Option.value ~default:0 (Hashtbl.find_opt ly.rejects l)))
        cands;
      let t0 = now () in
      ignore (Opt.direct_cost stats block);
      ly.c_busy <- ly.c_busy +. (now () -. t0);
      ly.c_calls <- ly.c_calls + 1)
    (Opt.enumerate_blocks q);
  r

(* The time spent replaying, i.e. what the trace added to each operation. *)
let replay_busy ly = ly.an_busy +. ly.ft_busy +. ly.m_busy +. ly.c_busy

let set_optimizer_layers ly =
  seti "analysis.calls" ly.an_calls;
  set "analysis.busy_s" ly.an_busy;
  seti "filter_tree.searches" ly.ft_searches;
  set "filter_tree.busy_s" ly.ft_busy;
  set "filter_tree.candidates_per_search" (frac ly.ft_cands ly.ft_searches);
  seti "matcher.calls" ly.m_calls;
  set "matcher.busy_s" ly.m_busy;
  set "matcher.match_frac" (frac ly.m_matched ly.m_calls);
  Hashtbl.iter (fun l n -> seti ("matcher.reject." ^ l) n) ly.rejects;
  seti "cost.calls" ly.c_calls;
  set "cost.busy_s" ly.c_busy;
  seti "optimizer.calls" ly.o_calls;
  set "optimizer.busy_s" ly.o_busy;
  set "optimizer.unattributed_s" (ly.o_busy -. replay_busy ly)

(* GC and tracing-overhead figures over one traced window, [gc0] and [gc1]
   taken at its ends. [plain] is the busy time the operations would have
   taken untraced (the timed library calls alone), [traced] the busy time
   with the tracing calls added. *)
let set_gc_overhead gc0 gc1 ~ops ~plain ~traced =
  set "gc.minor_words_per_op"
    ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int (max 1 ops));
  seti "gc.major_collections"
    (gc1.Gc.major_collections - gc0.Gc.major_collections);
  set "trace.overhead_frac" (if plain > 0.0 then (traced /. plain) -. 1.0 else 0.0)

(* ---- workload: paper-optimize ----

   Section 5's experiment over the paper's fixed populations (1000
   generated views, 1000 generated queries), Alt&Filter, one uncached
   optimization per query in a closed loop, in whole passes of a seeded
   query order until the time is up. The plans of the first pass give
   rewritten_frac and plan_cost_total, summed in population order so they
   repeat exactly; every later pass must reproduce them, and a seeded
   sample of them must match the plans of a No-Filter registry (the
   paper's linear-scan reference) in cost, rows and view use — the two
   registries offer candidates in different orders, so among equal-cost
   substitutes they may pick different views. Writes are view definitions
   (analysis plus filter-tree insertion) of the whole population into
   fresh registries after the loop, timed in batches. *)


let register_batch = 10 (* views per timed write *)
let write_rounds = 3

let paper_optimize ~seed ~seconds ~trace =
  let writes = Samples.create () in
  let w, reg =
    timed_setup (fun () ->
        let w = H.make_workload ~nviews:1000 ~nqueries:1000 () in
        let reg = R.create w.H.schema in
        List.iter (R.add_prebuilt reg) w.H.views;
        (w, reg))
  in
  let nofilter = R.create ~use_filter:false w.H.schema in
  List.iter (R.add_prebuilt nofilter) w.H.views;
  Mv_relalg.Intern.freeze ();
  let queries = Array.of_list w.H.queries in
  let nq = Array.length queries in
  let prng = Prng.create seed in
  let order = Array.of_list (Prng.shuffle prng (List.init nq Fun.id)) in
  let first = Array.make nq None in
  let lat = Samples.create () in
  let ly = new_layers () in
  let obs = reg.R.obs in
  let snap0 = counters obs tree_counter_names in
  let gc0 = Gc.quick_stat () in
  let ops = ref 0 and traced_busy = ref 0.0 in
  let t_start = now () in
  let deadline = t_start +. seconds in
  while !ops = 0 || now () < deadline do
    Array.iter
      (fun i ->
        let q = queries.(i) in
        let t0 = now () in
        match
          if trace then traced_optimize ly reg w.H.stats q
          else Opt.optimize reg w.H.stats q
        with
        | r -> (
            let dt = now () -. t0 in
            Samples.add lat dt;
            traced_busy := !traced_busy +. dt;
            incr ops;
            match first.(i) with
            | None -> first.(i) <- Some r
            | Some (f : Opt.result) ->
                check
                  (f.Opt.cost = r.Opt.cost
                  && f.Opt.used_views = r.Opt.used_views))
        | exception e ->
            incr ops;
            fail "optimize" e)
      order
  done;
  let wall = now () -. t_start in
  let gc1 = Gc.quick_stat () in
  (* the No-Filter oracle on a seeded sample of first-pass plans *)
  for _ = 1 to 25 do
    let i = Prng.int prng nq in
    match first.(i) with
    | None -> check false
    | Some f ->
        check
          (match Opt.optimize nofilter w.H.stats queries.(i) with
          | r ->
              r.Opt.cost = f.Opt.cost
              && r.Opt.rows = f.Opt.rows
              && r.Opt.used_views = f.Opt.used_views
          | exception _ -> false)
  done;
  Array.iter (fun f -> check (f <> None)) first;
  (* writes: defining and indexing the whole population into fresh
     registries, timed in batches, after the loop so that the noise of a
     young process's heap growth stays out of them *)
  let views = Array.of_list w.H.views in
  for _ = 1 to write_rounds do
    let r = R.create w.H.schema in
    for b = 0 to (Array.length views / register_batch) - 1 do
      let t0 = now () in
      for i = b * register_batch to ((b + 1) * register_batch) - 1 do
        let v = views.(i) in
        ignore
          (R.add_view r ~row_count:v.V.row_count ~name:v.V.name (V.spjg v))
      done;
      Samples.add writes (now () -. t0)
    done
  done;
  let used = ref 0 and cost = ref 0.0 in
  Array.iter
    (function
      | Some (f : Opt.result) ->
          if f.Opt.used_views then incr used;
          cost := !cost +. f.Opt.cost
      | None -> ())
    first;
  Printf.printf "%-14s queries=%d views=%d passes=%d\n" "workload" nq
    (List.length w.H.views) (!ops / nq);
  let p50, tl = summary "optimize" lat in
  let wp50, wtl = summary "register" writes in
  if trace then begin
    set_optimizer_layers ly;
    set_tree_flow (delta obs snap0);
    seti "registry.mutations" writes.Samples.n;
    set "registry.mutation_p50_ms" wp50;
    set "registry.mutation_tail_ms" wtl;
    set "write.p50_ms" wp50;
    set "write.tail_ms" wtl;
    set "read.busy_s" (!traced_busy -. replay_busy ly);
    set_gc_overhead gc0 gc1 ~ops:!ops ~plain:ly.o_busy ~traced:!traced_busy;
    emit_layers ()
  end
  else begin
    metric "latency_p50_ms" p50 "ms";
    metric "latency_tail_ms" tl "ms";
    metric "throughput_qps" (float_of_int !ops /. wall) "1/s";
    metric "rewritten_frac" (frac !used nq) "frac";
    metric "plan_cost_total" !cost "cost";
    metric "top_heap_mb" (top_heap_mb ()) "MB"
  end

(* ---- workload: serve-churn ----

   1000 views behind one Serve front; one serving domain submits an
   open-loop stream at a fixed offered rate of Zipf(1.0)-distributed
   queries straight through [Serve.submit]; one mutator domain drops and
   re-adds tail views on a fixed period. The hot queries are warmed before
   the clock. Latency runs from the scheduled arrival to completion. A
   stride of (epoch, query, plan) observations is replayed against a
   scratch registry holding that epoch's view population, optimized
   sequentially without any cache. *)

let rate = 15.0


let churn_period = 0.12
let churn_pool = 8
let zipf_s = 1.0
let hot = 100 (* queries warmed before the clock and priced after it *)

(* [count] draws of query k with Zipf weight 1/k^s, by systematic
   sampling (one seeded offset, then evenly spaced points through the
   cumulative weights) in a seeded order: every query is drawn within one
   of its expected count, so runs differ in order and timing, not in how
   often an expensive query happens to come up. *)
let zipf_draws prng n count =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (k + 1) ** zipf_s));
    cdf.(k) <- !acc
  done;
  let offset = Prng.float prng in
  let draw i =
    let u = (float_of_int i +. offset) /. float_of_int count *. !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  Array.of_list (Prng.shuffle prng (List.init count draw))

type op = Drop of V.t | Add of V.t

let serve_churn ~seed ~seconds ~trace =
  let w, reg, front =
    timed_setup (fun () ->
        let w = H.make_workload ~nviews:1000 ~nqueries:1000 () in
        let reg = R.create w.H.schema in
        List.iter (R.add_prebuilt reg) w.H.views;
        let front = Serve.front reg w.H.stats in
        ignore (R.snapshot reg);
        List.iter (fun q -> ignore (Serve.submit front q)) (H.take hot w.H.queries);
        (w, reg, front))
  in
  Mv_relalg.Intern.freeze ();
  let queries = Array.of_list w.H.queries in
  let nq = Array.length queries in
  (* the seeded stream: arrivals at the offered rate, query k drawn with
     Zipf weight 1/k^s *)
  let prng = Prng.create seed in
  let n = max 1 (int_of_float (rate *. seconds)) in
  (* one arrival at a uniformly random instant of each of n equal slots
     of the window: random like a Poisson stream, without its clusters,
     whose luck moved the latency tail more than any code change should *)
  let slot = seconds /. float_of_int n in
  let times =
    Array.init n (fun i -> (float_of_int i +. Prng.float prng) *. slot)
  in
  let draws = zipf_draws prng nq n in
  let arrivals = Array.mapi (fun i t -> (t, draws.(i))) times in
  let stride = max 1 (n / 60) in
  let obs = reg.R.obs in
  let cnames =
    [
      "cache.l1.hits"; "cache.l1.misses"; "serve.flight.leaders";
      "serve.flight.waits"; "cache.plan.hits"; "cache.plan.misses";
      "cache.plan.invalidations"; "cache.plan.evictions"; "cache.match.hits";
      "cache.match.misses"; "cache.match.invalidations";
      "cache.match.evictions";
    ]
  in
  let snap0 = counters obs (cnames @ tree_counter_names) in
  let leaders = Obs.counter obs "serve.flight.leaders" in
  let views = Array.of_list w.H.views in
  let pool = Array.sub views (Array.length views - churn_pool) churn_pool in
  let epoch0 = R.epoch reg in
  let stop = Atomic.make false in
  let gc0 = Gc.quick_stat () in
  let t_start = now () in
  let mutator =
    Domain.spawn (fun () ->
        let log = ref [] and times = Samples.create () and i = ref 0 in
        let next = ref (t_start +. churn_period) in
        while not (Atomic.get stop) do
          let d = !next -. now () in
          if d > 0.0 then Unix.sleepf (Float.min d 0.02)
          else begin
            let v = pool.(!i / 2 mod churn_pool) in
            let t0 = now () in
            let op =
              if !i mod 2 = 0 then (
                R.remove_view reg v.V.name;
                Drop v)
              else (
                R.add_prebuilt reg v;
                Add v)
            in
            Samples.add times (now () -. t0);
            log := (R.epoch reg, op) :: !log;
            incr i;
            next := !next +. churn_period
          end
        done;
        (List.rev !log, times))
  in
  let lat = Samples.create () and service = Samples.create () in
  let wait = Samples.create () in
  let observed = ref [] and misses = ref [] in
  let traced_busy = ref 0.0 in
  (try
     Array.iteri
       (fun i (a, qi) ->
         let due = t_start +. a in
         let d = due -. now () in
         if d > 0.0 then Unix.sleepf d;
         let t0 = now () in
         let snap = if trace then Some (R.snapshot reg) else None in
         let l0 = I.value leaders in
         let t1 = now () in
         match Serve.submit front queries.(qi) with
         | ep, r ->
             let t2 = now () in
             (match snap with
             | Some s when I.value leaders > l0 && s.R.snap_epoch = ep ->
                 misses := (s, qi) :: !misses
             | _ -> ());
             let t3 = now () in
             Samples.add lat (t2 -. due);
             Samples.add service (t2 -. t1);
             Samples.add wait (t2 -. due -. (t2 -. t1));
             traced_busy := !traced_busy +. (t1 -. t0) +. (t3 -. t1);
             if i mod stride = 0 then
               observed := (ep, qi, Plan.to_string r.Opt.plan) :: !observed
         | exception e -> fail "submit" e)
       arrivals
   with e ->
     Atomic.set stop true;
     raise e);
  let wall = now () -. t_start in
  let gc1 = Gc.quick_stat () in
  Atomic.set stop true;
  let log, mtimes = Domain.join mutator in
  (* counter deltas over the window, before the checks below move them *)
  let snap1 = counters obs (cnames @ tree_counter_names) in
  let d n = List.assoc n snap1 - List.assoc n snap0 in
  (* plan quality over the hot queries (about 70% of the stream), served
     once more through the front at the final view population *)
  let used = ref 0 and cost = ref 0.0 in
  List.iter
    (fun q ->
      match Serve.submit front q with
      | _, r ->
          incr attempted;
          if r.Opt.used_views then incr used;
          cost := !cost +. r.Opt.cost
      | exception e -> fail "submit" e)
    (H.take hot w.H.queries);
  (* the replay oracle: populations per epoch from the mutation log *)
  let pops = Hashtbl.create 64 in
  Hashtbl.replace pops epoch0 w.H.views;
  ignore
    (List.fold_left
       (fun cur (ep, op) ->
         let next =
           match op with
           | Drop v -> List.filter (fun (x : V.t) -> x.V.name <> v.V.name) cur
           | Add v -> cur @ [ v ]
         in
         Hashtbl.replace pops ep next;
         next)
       w.H.views log);
  let regs = Hashtbl.create 16 in
  List.iter
    (fun (ep, qi, plan) ->
      check
        (match Hashtbl.find_opt pops ep with
        | None -> false
        | Some views -> (
            let r =
              match Hashtbl.find_opt regs ep with
              | Some r -> r
              | None ->
                  let r = R.create w.H.schema in
                  List.iter (R.add_prebuilt r) views;
                  Hashtbl.replace regs ep r;
                  r
            in
            match Opt.optimize r w.H.stats queries.(qi) with
            | s -> String.equal (Plan.to_string s.Opt.plan) plan
            | exception _ -> false)))
    !observed;
  attempted := !attempted + (Samples.(lat.n) - List.length !observed);
  Printf.printf "%-14s rate=%g/s arrivals=%d mutations=%d epochs=%d..%d\n"
    "workload" rate n (List.length log) epoch0 (R.epoch reg);
  let p50, tl = summary "latency" lat in
  let sp50, stl = summary "service" service in
  let _, wtl = summary "queue_wait" wait in
  let mp50, mtl = summary "mutation" mtimes in
  let served = Samples.(lat.n) in
  if trace then begin
    set "match_cache.plan.hit_frac"
      (frac (d "cache.plan.hits") (d "cache.plan.hits" + d "cache.plan.misses"));
    seti "match_cache.plan.invalidations" (d "cache.plan.invalidations");
    set "match_cache.match.hit_frac"
      (frac (d "cache.match.hits")
         (d "cache.match.hits" + d "cache.match.misses"));
    seti "match_cache.match.invalidations" (d "cache.match.invalidations");
    seti "match_cache.evictions"
      (d "cache.plan.evictions" + d "cache.match.evictions");
    set "serve.l1.hit_frac"
      (frac (d "cache.l1.hits") (d "cache.l1.hits" + d "cache.l1.misses"));
    seti "serve.flight.waits" (d "serve.flight.waits");
    set "serve.service_p50_ms" sp50;
    set "serve.service_tail_ms" stl;
    set "serve.queue_wait_tail_ms" wtl;
    seti "registry.mutations" (List.length log);
    set "registry.mutation_p50_ms" mp50;
    set "registry.mutation_tail_ms" mtl;
    set "write.p50_ms" mp50;
    set "write.tail_ms" mtl;
    set "read.busy_s" (Samples.sum service);
    set_gc_overhead gc0 gc1 ~ops:served ~plain:(Samples.sum service)
      ~traced:!traced_busy;
    set_tree_flow d;
    (* the optimizations the stream led, replayed outside-in after the
       window against the snapshots they pinned *)
    let ly = new_layers () in
    List.iter
      (fun (s, qi) -> ignore (traced_optimize ly ~snap:s reg w.H.stats queries.(qi)))
      (List.rev !misses);
    set_optimizer_layers ly;
    emit_layers ()
  end
  else begin
    metric "latency_p50_ms" p50 "ms";
    metric "latency_tail_ms" tl "ms";
    metric "throughput_qps" (float_of_int served /. wall) "1/s";
    metric "rewritten_frac" (frac !used hot) "frac";
    metric "plan_cost_total" !cost "cost";
    metric "top_heap_mb" (top_heap_mb ()) "MB"
  end

(* ---- workload: exec-mixed ----

   TPC-H data at scale 4; views picked by the advisor from the candidates
   the miner finds in 60 generated queries, materialized and attached to
   IVM. A closed loop over a seeded stream of operations whose length is
   fixed by --seconds, so plan quality repeats exactly: 80% reads
   (optimize, then adaptive plan execution), 20% writes (an 8-row
   insert/delete batch through Ivm.apply, then Ivm.refresh_stats). A
   seeded quarter of the reads is bag-checked against direct execution of
   the original query; at the end every maintained view is bag-checked
   against its recomputation. *)

let ops_per_second = 25
let writes_per_round = 15 (* per round of 60 reads: a 20% write share *)
let batch_rows = 4 (* inserts; as many deletes *)

type xop = Read of int * bool | Write of Ivm.batch

let indexes =
  [
    ("lineitem", [ "l_orderkey" ]); ("orders", [ "o_orderkey" ]);
    ("part", [ "p_partkey" ]); ("nation", [ "n_nationkey" ]);
    ("region", [ "r_regionkey" ]);
  ]

let exec_mixed ~seed ~seconds ~trace =
  let nops = max 1 (int_of_float (float_of_int ops_per_second *. seconds)) in
  let db, stats0, queries, views, ivm, reg, stream =
    timed_setup (fun () ->
        let schema = Mv_tpch.Schema.schema in
        let db = Mv_tpch.Datagen.generate ~scale:4 () in
        List.iter (fun (table, cols) -> Db.declare_index db ~table ~cols) indexes;
        let stats = Db.stats db in
        let queries =
          Array.of_list
            (Mv_workload.Generator.queries schema stats 60)
        in
        let candidates =
          Mv_workload.Miner.definitions
            (Mv_workload.Miner.mine (Array.to_list queries))
        in
        let advice =
          Mv_opt.Advisor.advise schema stats ~candidates
            ~queries:(Array.to_list queries)
        in
        let ivm = Ivm.create db in
        let views =
          List.filter_map
            (fun (p : Mv_opt.Advisor.pick) ->
              match V.create schema ~name:p.Mv_opt.Advisor.name p.Mv_opt.Advisor.spjg with
              | v -> (
                  ignore (Exec.materialize db v);
                  match Ivm.attach ivm v with
                  | () -> Some v
                  | exception Ivm.Unsupported _ -> None)
              | exception V.Rejected _ -> None)
            advice.Mv_opt.Advisor.picks
        in
        let stats = Db.stats db in
        let reg = R.create schema in
        List.iter (R.add_prebuilt reg) views;
        (* the seeded operation stream. Writes go to source tables no
           foreign key references (in TPC-H, lineitem), so every key and
           foreign key the matcher relies on keeps holding: inserts copy
           existing rows, deletes draw distinct row instances of the
           initial contents, so none names a row an earlier batch
           removed *)
        let prng = Prng.create seed in
        let tables =
          Array.of_list
            (List.filter
               (fun tn -> Mv_catalog.Schema.fks_to schema tn = [])
               (Mv_util.Sset.elements
                  (List.fold_left
                     (fun acc (v : V.t) ->
                       Mv_util.Sset.union acc v.V.source_tables)
                     Mv_util.Sset.empty views)))
        in
        let pools =
          Array.map
            (fun tn ->
              let rows = Array.of_list (Db.table_exn db tn).Mv_engine.Table.rows in
              let order = Array.of_list (Prng.shuffle prng (List.init (Array.length rows) Fun.id)) in
              (rows, order, ref 0))
            tables
        in
        let write () =
          let t = Prng.int prng (Array.length tables) in
          let rows, order, next = pools.(t) in
          let n = Array.length rows in
          let ins = List.init batch_rows (fun _ -> rows.(Prng.int prng n)) in
          let k = min batch_rows (n - !next) in
          let del = List.init k (fun j -> rows.(order.(!next + j))) in
          next := !next + k;
          Write [ (tables.(t), { Ivm.ins; del }) ]
        in
        (* whole rounds: every query read once in a seeded order, with
           the round's writes at seeded places between the reads *)
        let nq = Array.length queries in
        let round () =
          let reads =
            List.map
              (fun qi -> Read (qi, Prng.chance prng 0.25))
              (Prng.shuffle prng (List.init nq Fun.id))
          in
          let writes =
            if Array.length tables = 0 then []
            else List.init writes_per_round (fun _ -> write ())
          in
          List.map snd
            (List.sort
               (fun (a, _) (b, _) -> compare a b)
               (List.mapi (fun i r -> ((i * 4) + 3, r)) reads
               @ List.map (fun w -> (Prng.int prng (4 * nq), w)) writes))
        in
        let rounds = max 1 ((nops + nq + writes_per_round - 1) / (nq + writes_per_round)) in
        let stream = Array.of_list (List.concat (List.init rounds (fun _ -> round ()))) in
        (db, stats, queries, views, ivm, reg, stream))
  in
  Mv_relalg.Intern.freeze ();
  let stats = ref stats0 in
  let reads = Samples.create () and writes = Samples.create () in
  let ly = new_layers () in
  let gobs = Obs.global in
  let obs = reg.R.obs in
  let snap0 = counters obs tree_counter_names in
  let g0 = counters gobs global_names in
  (* exec counters moved by the oracle, excluded from the layer deltas *)
  let g_excluded = Hashtbl.create 8 in
  let exclude f =
    let before = counters gobs global_names in
    let r = f () in
    List.iter
      (fun (n, v) ->
        Hashtbl.replace g_excluded n
          (Obs.counter_value gobs n - v
          + Option.value ~default:0 (Hashtbl.find_opt g_excluded n)))
      before;
    r
  in
  let used = ref 0 and cost = ref 0.0 in
  let exec_busy = ref 0.0 and apply_busy = ref 0.0 and refresh_busy = ref 0.0 in
  let gc0 = Gc.quick_stat () in
  let t_start = now () in
  Array.iter
    (function
      | Read (qi, checked) -> (
          let q = queries.(qi) in
          let t0 = now () in
          match
            let r =
              if trace then traced_optimize ly reg !stats q
              else Opt.optimize reg !stats q
            in
            let t1 = now () in
            let rel = Mv_opt.Plan_exec.execute ~adaptive:true ~stats:!stats db q r.Opt.plan in
            exec_busy := !exec_busy +. (now () -. t1);
            (r, rel)
          with
          | r, rel ->
              Samples.add reads (now () -. t0);
              if r.Opt.used_views then incr used;
              cost := !cost +. r.Opt.cost;
              if checked then
                check
                  (exclude (fun () ->
                       H.bag_close rel.Mv_engine.Relation.rows
                         (Exec.execute db q).Mv_engine.Relation.rows))
              else incr attempted
          | exception e -> fail "read" e)
      | Write batch -> (
          let t0 = now () in
          match
            Ivm.apply ivm batch;
            let t1 = now () in
            stats := Ivm.refresh_stats ivm !stats;
            let t2 = now () in
            apply_busy := !apply_busy +. (t1 -. t0);
            refresh_busy := !refresh_busy +. (t2 -. t1)
          with
          | () ->
              Samples.add writes (now () -. t0);
              incr attempted
          | exception e -> fail "write" e))
    stream;
  let wall = now () -. t_start in
  let gc1 = Gc.quick_stat () in
  let gd n =
    Obs.counter_value gobs n - List.assoc n g0
    - Option.value ~default:0 (Hashtbl.find_opt g_excluded n)
  in
  let gd = List.map (fun n -> (n, gd n)) global_names in
  List.iter
    (fun (v : V.t) ->
      check
        (match
           H.bag_close (Db.table_exn db v.V.name).Mv_engine.Table.rows
             (Exec.execute db (V.spjg v)).Mv_engine.Relation.rows
         with
        | ok -> ok
        | exception _ -> false))
    views;
  let nreads = Samples.(reads.n) and nwrites = Samples.(writes.n) in
  Printf.printf "%-14s ops=%d reads=%d writes=%d views=%d queries=%d\n"
    "workload" nops nreads nwrites (List.length views) (Array.length queries);
  let p50, tl = summary "read" reads in
  let wp50, wtl = summary "write" writes in
  if trace then begin
    set_optimizer_layers ly;
    set_tree_flow (delta obs snap0);
    set "exec.busy_s" !exec_busy;

    seti "exec.rows_out" (List.assoc "exec.rows.output" gd);
    List.iter
      (fun k -> seti ("exec.join." ^ k) (List.assoc ("exec.join.strategy." ^ k) gd))
      [ "hash"; "nlj"; "inlj" ];
    set "ivm.apply_busy_s" !apply_busy;
    set "ivm.refresh_stats_busy_s" !refresh_busy;
    List.iter
      (fun k -> seti ("ivm." ^ k) (List.assoc ("ivm." ^ k) gd))
      [ "rows.plus"; "rows.minus"; "views.updated"; "groups.born"; "groups.died" ];
    (* reads and writes as they would have taken untraced *)
    set "read.busy_s" (Samples.sum reads -. replay_busy ly);
    set "write.busy_s" (Samples.sum writes);
    set "write.p50_ms" wp50;
    set "write.tail_ms" wtl;
    let traced = Samples.sum reads +. Samples.sum writes in
    set_gc_overhead gc0 gc1 ~ops:(nreads + nwrites) ~plain:(traced -. replay_busy ly)
      ~traced;
    emit_layers ()

  end
  else begin
    metric "latency_p50_ms" p50 "ms";
    metric "latency_tail_ms" tl "ms";
    metric "throughput_qps" (float_of_int (nreads + nwrites) /. wall) "1/s";
    metric "rewritten_frac" (frac !used nreads) "frac";
    metric "plan_cost_total" !cost "cost";
    metric "top_heap_mb" (top_heap_mb ()) "MB"
  end

(* Minor heap per domain, in words: 16 MB against OCaml's default 2 MB.
   Less is promoted, so the major collector's phase at any moment (which
   the run's inputs and timing decide) moves the timings less. *)
let minor_heap_words = 2 * 1024 * 1024

let () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words };
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 in

  let trace = ref (-1) in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some s when s >= 0 -> seed := s | _ -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> seconds := s
        | _ -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := 0 | "1" -> trace := 1 | _ -> usage ());
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !seed < 0 || !seconds <= 0.0 || !trace < 0 then usage ();
  let run =
    match !workload with
    | "paper-optimize" -> paper_optimize
    | "serve-churn" -> serve_churn
    | "exec-mixed" -> exec_mixed
    | _ -> usage ()
  in
  run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1);
  if !trace = 0 then metric "setup_s" !setup_s "s";

  print_result ()
