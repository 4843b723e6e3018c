(* The per-view health ledger: runtime accounts of what each registered
   view cost and earned, keyed by view NAME so an account survives
   add/drop churn (a view dropped and defined again gets a new
   descriptor; the name is the stable identity — same reasoning as the
   staleness bit in DESIGN.md §12).

   Counts are atomic ints (no lock, no lost updates under multi-domain
   serving); the float accumulators (estimated cost saved, maintenance
   wall time) share a tiny per-account mutex, exactly like
   [Mv_obs.Instrument] timers. Account creation is rare and serialized
   by the ledger mutex; lookups take the same mutex because OCaml
   hashtables do not tolerate concurrent resize — one uncontended
   lock/unlock per attribution, nanoseconds next to the matching and
   optimization being measured. *)

module J = Mv_obs.Json
module E = Mv_obs.Export

type account = {
  a_candidate : int Atomic.t;  (** survived the filter tree *)
  a_matched : int Atomic.t;  (** produced a substitute *)
  a_chosen : int Atomic.t;  (** appeared in a final plan *)
  a_cache_hits : int Atomic.t;  (** served from the plan cache *)
  a_stale_flips : int Atomic.t;  (** fresh -> stale transitions *)
  a_maint_events : int Atomic.t;  (** maintenance batches applied *)
  a_lock : Mutex.t;
  mutable a_benefit : float;
      (** cumulative estimated cost saved: direct minus substitute cost
          at the optimizer's win sites *)
  mutable a_maint_s : float;  (** cumulative maintenance wall seconds *)
}

type t = {
  lock : Mutex.t;
  accounts : (string, account) Hashtbl.t;
  queries : (string, Mv_relalg.Spjg.t * int ref) Hashtbl.t;
      (** observed workload: distinct query (by SQL rendering) -> count *)
  q_total : int Atomic.t;
}

let create () =
  {
    lock = Mutex.create ();
    accounts = Hashtbl.create 64;
    queries = Hashtbl.create 64;
    q_total = Atomic.make 0;
  }

let account t name =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.accounts name with
      | Some a -> a
      | None ->
          let a =
            {
              a_candidate = Atomic.make 0;
              a_matched = Atomic.make 0;
              a_chosen = Atomic.make 0;
              a_cache_hits = Atomic.make 0;
              a_stale_flips = Atomic.make 0;
              a_maint_events = Atomic.make 0;
              a_lock = Mutex.create ();
              a_benefit = 0.0;
              a_maint_s = 0.0;
            }
          in
          Hashtbl.replace t.accounts name a;
          a)

let bump field t name = Atomic.incr (field (account t name))

let record_candidate = bump (fun a -> a.a_candidate)

let record_matched = bump (fun a -> a.a_matched)

let record_cache_hit = bump (fun a -> a.a_cache_hits)

let record_stale = bump (fun a -> a.a_stale_flips)

let record_chosen t ?(benefit = 0.0) name =
  let a = account t name in
  Atomic.incr a.a_chosen;
  if benefit > 0.0 then
    Mutex.protect a.a_lock (fun () -> a.a_benefit <- a.a_benefit +. benefit)

let record_maintenance t ~wall name =
  let a = account t name in
  Atomic.incr a.a_maint_events;
  Mutex.protect a.a_lock (fun () -> a.a_maint_s <- a.a_maint_s +. wall)

(* ---- observed workload ---- *)

let record_query t spjg =
  Atomic.incr t.q_total;
  let key = Mv_relalg.Spjg.to_sql spjg in
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.queries key with
      | Some (_, n) -> incr n
      | None -> Hashtbl.replace t.queries key (spjg, ref 1))

let queries_total t = Atomic.get t.q_total

let query_frequencies t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun _ (spjg, n) acc -> (spjg, !n) :: acc) t.queries [])
  |> List.sort (fun (a, na) (b, nb) ->
         match compare nb na with
         | 0 -> String.compare (Mv_relalg.Spjg.to_sql a) (Mv_relalg.Spjg.to_sql b)
         | c -> c)

(* ---- reporting ---- *)

type row = {
  r_view : string;
  r_candidate : int;
  r_matched : int;
  r_chosen : int;
  r_cache_hits : int;
  r_stale_flips : int;
  r_maint_events : int;
  r_benefit : float;
  r_maint_s : float;
}

let row_of name a =
  let benefit, maint_s =
    Mutex.protect a.a_lock (fun () -> (a.a_benefit, a.a_maint_s))
  in
  {
    r_view = name;
    r_candidate = Atomic.get a.a_candidate;
    r_matched = Atomic.get a.a_matched;
    r_chosen = Atomic.get a.a_chosen;
    r_cache_hits = Atomic.get a.a_cache_hits;
    r_stale_flips = Atomic.get a.a_stale_flips;
    r_maint_events = Atomic.get a.a_maint_events;
    r_benefit = benefit;
    r_maint_s = maint_s;
  }

(* Ranking heuristic for surfaces: estimated optimizer cost saved net of
   maintenance wall time. The units differ (cost model units vs seconds)
   so the absolute value is a heuristic, but the ORDERING is what the
   table is for: views with benefit and no maintenance rise, freeloaders
   that only ever pay maintenance sink below zero. *)
let net r = r.r_benefit -. r.r_maint_s

let dead r = r.r_matched = 0

let find t name =
  let a = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.accounts name) in
  Option.map (row_of name) a

let rows t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun name a acc -> (name, a) :: acc) t.accounts [])
  |> List.map (fun (name, a) -> row_of name a)
  |> List.sort (fun a b ->
         match compare (net b) (net a) with
         | 0 -> String.compare a.r_view b.r_view
         | c -> c)

let row_json r =
  J.Obj
    [
      ("view", J.String r.r_view);
      ("candidate", J.Int r.r_candidate);
      ("matched", J.Int r.r_matched);
      ("chosen", J.Int r.r_chosen);
      ("cache_hits", J.Int r.r_cache_hits);
      ("stale_flips", J.Int r.r_stale_flips);
      ("maint_events", J.Int r.r_maint_events);
      ("benefit", J.Float r.r_benefit);
      ("maint_s", J.Float r.r_maint_s);
      ("net", J.Float (net r));
      ("dead", J.Bool (dead r));
    ]

let to_json t =
  let rs = rows t in
  J.Obj
    [
      ("views", J.Int (List.length rs));
      ("queries_observed", J.Int (queries_total t));
      ("distinct_queries", J.Int (List.length (query_frequencies t)));
      ("dead", J.List (List.filter_map (fun r -> if dead r then Some (J.String r.r_view) else None) rs));
      ("accounts", J.List (List.map row_json rs));
    ]

(* ---- OpenMetrics families (per-view label on each sample) ---- *)

let families ?(prefix = "mv_view_") t =
  let rs = rows t in
  let label r = [ ("view", r.r_view) ] in
  let counter name help get =
    E.Counter
      {
        name = prefix ^ name;
        help;
        samples = List.map (fun r -> (label r, float_of_int (get r))) rs;
      }
  in
  let fcounter name help get =
    E.Counter
      { name = prefix ^ name; help; samples = List.map (fun r -> (label r, get r)) rs }
  in
  if rs = [] then []
  else
    [
      counter "candidate" "times the view survived the filter tree"
        (fun r -> r.r_candidate);
      counter "matched" "times the view produced a substitute"
        (fun r -> r.r_matched);
      counter "chosen" "times the view appeared in a final plan"
        (fun r -> r.r_chosen);
      counter "cache_hits" "times a cached plan using the view was served"
        (fun r -> r.r_cache_hits);
      counter "stale_flips" "fresh->stale transitions" (fun r -> r.r_stale_flips);
      counter "maintenance_batches" "maintenance batches applied"
        (fun r -> r.r_maint_events);
      fcounter "benefit" "estimated optimizer cost saved" (fun r -> r.r_benefit);
      fcounter "maintenance_seconds" "maintenance wall time paid"
        (fun r -> r.r_maint_s);
      E.Gauge
        {
          name = prefix ^ "net_benefit";
          help = "benefit minus maintenance (ranking heuristic)";
          samples = List.map (fun r -> (label r, net r)) rs;
        };
    ]

(* ---- human table (mvopt top) ---- *)

let render ?(limit = 0) t =
  let rs = rows t in
  let rs = if limit > 0 then List.filteri (fun i _ -> i < limit) rs else rs in
  let b = Buffer.create 1024 in
  let width =
    List.fold_left (fun acc r -> max acc (String.length r.r_view)) 4 rs
  in
  Printf.bprintf b "  %-*s %9s %9s %9s %7s %7s %6s %12s %10s %12s  %s\n" width
    "view" "candidate" "matched" "chosen" "cached" "stale" "maint" "benefit"
    "maint_s" "net" "";
  List.iter
    (fun r ->
      Printf.bprintf b "  %-*s %9d %9d %9d %7d %7d %6d %12.1f %10.4f %12.1f  %s\n"
        width r.r_view r.r_candidate r.r_matched r.r_chosen r.r_cache_hits
        r.r_stale_flips r.r_maint_events r.r_benefit r.r_maint_s (net r)
        (if dead r then "DEAD" else ""))
    rs;
  Buffer.contents b
