(** The view registry: all materialized views, indexed by a filter tree,
    with the counters the paper's evaluation reports (candidate fraction,
    pass rate, substitutes per invocation). This is the entry point the
    optimizer's view-matching rule calls.

    All measurement goes through an [Mv_obs] registry (one scoped instance
    per view registry unless the caller shares one): the rule maintains the
    [rule.*] counters and the [rule.time] wall+CPU timer, the filter tree
    contributes its per-level [filter_tree.*] counters. A per-invocation
    record (tables, candidates, match verdicts, wall time) is the [rule]
    span of a traced optimization ({!Mv_obs.Span}). The historical [stats]
    record survives as a read-only façade computed from the instruments. *)

module A = Mv_relalg.Analysis
module Obs = Mv_obs.Registry

type stats = {
  invocations : int;
  candidates : int;  (** views surviving the filter tree *)
  matched : int;  (** candidates that produced a substitute *)
  substitutes : int;
  rule_time : float;
      (** cumulative CPU seconds spent inside the view-matching rule
          (filtering + per-view tests + substitute construction); wall time
          is on the [rule.time] timer of {!field-obs} *)
}

type snapshot = {
  snap_epoch : int;
  snap_views : View.t list;
  snap_tree : Filter_tree.t;
}

(* The rule's instruments, resolved once per registry: a rule invocation
   bumps them without a name lookup under the obs registry's lock. *)
type rule_handles = {
  h_invocations : unit -> Mv_obs.Instrument.counter;
  h_candidates : unit -> Mv_obs.Instrument.counter;
  h_matched : unit -> Mv_obs.Instrument.counter;
  h_substitutes : unit -> Mv_obs.Instrument.counter;
  h_time : unit -> Mv_obs.Instrument.timer;
}

let rule_handles obs =
  let counter = Obs.resolver Obs.counter obs in
  {
    h_invocations = counter "rule.invocations";
    h_candidates = counter "rule.candidates";
    h_matched = counter "rule.matched";
    h_substitutes = counter "rule.substitutes";
    h_time = Obs.resolver Obs.timer obs "rule.time";
  }

type t = {
  schema : Mv_catalog.Schema.t;
  relaxed_nulls : bool;
  backjoins : bool;
  mutable use_filter : bool;
  mutable views : View.t list;  (** insertion order *)
  tree : Filter_tree.t;
  obs : Obs.t;
  rule : rule_handles;
  health : Health.t;
  epoch : int Atomic.t;
      (** bumped by every effective add/drop; the serving front's plan
          table stamps its entries with it (see [Mv_experiments.Serve]).
          Atomic so reader domains see a fresh value without a lock. *)
  snap : snapshot option Atomic.t;
      (** RCU publication slot, [None] until {!snapshot} first activates
          it (DESIGN.md §10). Once active, every effective mutation
          republishes a freshly built (epoch, views, tree) triple with one
          [Atomic.set] — readers that pin a snapshot see an internally
          consistent registry state with a single [Atomic.get] and never
          touch a mutex. *)
  write : Mutex.t;
      (** serializes mutations (and the first snapshot publication); never
          taken on any read path. *)
}

exception Duplicate_view of string

let create ?(relaxed_nulls = false) ?(backjoins = false) ?(use_filter = true)
    ?obs schema =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  {
    schema;
    relaxed_nulls;
    backjoins;
    use_filter;
    views = [];
    tree =
      Filter_tree.create
        ~plan:
          (if backjoins then Filter_tree.backjoin_plan
           else Filter_tree.default_plan)
        ();
    obs;
    rule = rule_handles obs;
    health = Health.create ();
    epoch = Atomic.make 0;
    snap = Atomic.make None;
    write = Mutex.create ();
  }

let epoch t = Atomic.get t.epoch

(* ---- RCU snapshot publication (DESIGN.md §10) ----

   The master [views]/[tree] stay mutated in place (cheap O(delta) under
   bulk construction); the published snapshot is a from-scratch rebuild of
   the current population into a FRESH tree, so nothing a reader pinned
   can ever be mutated under it. Publication is one [Atomic.set] of the
   whole (epoch, views, tree) record — the triple is always internally
   consistent. Writers pay the rebuild (classic RCU writer-pays); readers
   pay one [Atomic.get]. The slot stays [None] (and mutations skip the
   rebuild entirely) until the first [snapshot] call activates it, so
   registries that never serve concurrently keep O(delta) mutations. *)

let build_snapshot t =
  let tree = Filter_tree.create ~plan:(Filter_tree.plan t.tree) () in
  List.iter (Filter_tree.insert tree) t.views;
  (* extend the interners' published lock-free snapshot over any symbols
     the new views introduced, so reader-side key building after this
     publication stays on the frozen fast path *)
  Mv_relalg.Intern.freeze ();
  { snap_epoch = Atomic.get t.epoch; snap_views = t.views; snap_tree = tree }

(* Call with [t.write] held, after the master state reached its new
   epoch. A no-op until the slot is activated. *)
let republish t =
  if Atomic.get t.snap <> None then Atomic.set t.snap (Some (build_snapshot t))

let snapshot t =
  match Atomic.get t.snap with
  | Some s -> s
  | None ->
      (* first call: activate the slot under the write lock (competing
         mutations quiesce; competing first-snapshot calls publish twice,
         last wins, both results are current) *)
      Mutex.protect t.write (fun () ->
          match Atomic.get t.snap with
          | Some s -> s
          | None ->
              let s = build_snapshot t in
              Atomic.set t.snap (Some s);
              s)

let stats t =
  {
    invocations = Obs.counter_value t.obs "rule.invocations";
    candidates = Obs.counter_value t.obs "rule.candidates";
    matched = Obs.counter_value t.obs "rule.matched";
    substitutes = Obs.counter_value t.obs "rule.substitutes";
    rule_time = Mv_obs.Instrument.cpu (Obs.timer t.obs "rule.time");
  }

let view_count t = List.length t.views

let find_view t name = List.find_opt (fun v -> v.View.name = name) t.views

(* Define (and index) a materialized view. The duplicate check, the master
   mutation, the epoch bump and the republication all happen under the
   write lock, so concurrent writers serialize and an exception
   (Duplicate_view, View.Rejected) leaves the registry untouched. *)
let add_view t ?(row_count = 0) ?(indexes = []) ~name spjg : View.t =
  Mutex.protect t.write (fun () ->
      if find_view t name <> None then raise (Duplicate_view name);
      let view =
        View.create ~relaxed_nulls:t.relaxed_nulls ~row_count ~indexes
          t.schema ~name spjg
      in
      t.views <- t.views @ [ view ];
      Filter_tree.insert t.tree view;
      Atomic.incr t.epoch;
      republish t;
      view)

(* Register an already-created view descriptor (lets experiment sweeps
   share one descriptor across many registries instead of re-analyzing). *)
let add_prebuilt t (view : View.t) =
  Mutex.protect t.write (fun () ->
      if find_view t view.View.name <> None then
        raise (Duplicate_view view.View.name);
      t.views <- t.views @ [ view ];
      Filter_tree.insert t.tree view;
      Atomic.incr t.epoch;
      republish t)

(* Drop a view: filter-tree removal prunes lattice keys in place (no
   rebuild), and the epoch bump lazily invalidates every serving plan
   computed against the old population. A missing name is a no-op and
   does NOT advance the epoch (or republish). *)
let remove_view t name =
  Mutex.protect t.write (fun () ->
      match find_view t name with
      | None -> ()
      | Some v ->
          t.views <- List.filter (fun x -> x.View.name <> name) t.views;
          Filter_tree.remove t.tree v;
          Atomic.incr t.epoch;
          republish t)

(* The registry state a read runs against: the caller's pinned snapshot,
   the published one, or (pre-activation) an ephemeral view of the master
   — same fields, zero copies, so unactivated registries behave exactly
   as before. *)
let current ?snap t =
  match snap with
  | Some s -> s
  | None -> (
      match Atomic.get t.snap with
      | Some s -> s
      | None ->
          {
            snap_epoch = Atomic.get t.epoch;
            snap_views = t.views;
            snap_tree = t.tree;
          })

(* Candidate views for a query expression: via the filter tree, or a
   linear scan when the tree is disabled (the paper's "No Filter"
   configuration). *)
let candidates ?snap t (q : A.t) =
  let s = current ?snap t in
  if t.use_filter then Filter_tree.candidates ~obs:t.obs s.snap_tree q
  else s.snap_views

(* At most this many view names are spelled out in a span attribute; the
   rest collapse into a count so traces of 1000-view registries stay
   readable and bounded. *)
let names_cap = 16

let capped_names views =
  let names = List.map (fun v -> v.View.name) views in
  let n = List.length names in
  if n <= names_cap then String.concat "," names
  else
    String.concat "," (List.filteri (fun i _ -> i < names_cap) names)
    ^ Printf.sprintf ",+%d more" (n - names_cap)

(* One instant event per filter-tree stage under [sub], carrying how many
   views entered the stage, how many it pruned (with their names, capped)
   and how many it passed on. Computed by replaying {!Filter_tree.provenance}
   over the population — exact with respect to the indexed search, and only
   ever run on traced invocations, so the search itself stays untouched. *)
let record_stage_notes snap sub (q : A.t) =
  let qi = Filter_tree.query_info q in
  let tallies = Hashtbl.create 16 in
  let tally s =
    let key = Filter_tree.stage_name s in
    match Hashtbl.find_opt tallies key with
    | Some x -> x
    | None ->
        let x = (ref 0, ref []) in
        Hashtbl.add tallies key x;
        x
  in
  List.iter
    (fun v ->
      let path, fate = Filter_tree.provenance snap.snap_tree qi v in
      List.iter (fun s -> incr (fst (tally s))) path;
      match fate with
      | Filter_tree.Pruned s ->
          let _, pruned = tally s in
          pruned := v :: !pruned
      | Filter_tree.Passed -> ())
    snap.snap_views;
  List.iter
    (fun s ->
      let key = Filter_tree.stage_name s in
      match Hashtbl.find_opt tallies key with
      | None -> ()
      | Some (entered, pruned) ->
          let pruned = List.rev !pruned in
          let npruned = List.length pruned in
          Mv_obs.Span.note sub ("stage:" ^ key) (fun () ->
              [
                ("entered", Mv_obs.Span.Int !entered);
                ("pruned", Mv_obs.Span.Int npruned);
                ("out", Mv_obs.Span.Int (!entered - npruned));
              ]
              @
              if pruned = [] then []
              else [ ("pruned_views", Mv_obs.Span.Str (capped_names pruned)) ]))
    (Filter_tree.stages snap.snap_tree)

(* The view-matching rule body: find all views that can compute [q] and
   build one substitute per view. *)
let find_substitutes ?spans ?snap ?(fresh_only = false) t (q : A.t) :
    Substitute.t list =
  (* one snapshot per invocation: the candidate search, the population
     counts and the traced stage replay all see the same registry state *)
  let s = current ?snap t in
  let span = Mv_obs.Instrument.enter () in
  Mv_obs.Instrument.incr (t.rule.h_invocations ());
  let cands =
    Mv_obs.Span.wrap spans "filter" (fun sub ->
        let cands = candidates ~snap:s t q in
        if sub <> None then begin
          Mv_obs.Span.annotate sub (fun () ->
              [
                ("population", Mv_obs.Span.Int (List.length s.snap_views));
                ("candidates", Mv_obs.Span.Int (List.length cands));
                ("indexed", Mv_obs.Span.Bool t.use_filter);
              ]);
          if t.use_filter then record_stage_notes s sub q
        end;
        cands)
  in
  Mv_obs.Instrument.add (t.rule.h_candidates ()) (List.length cands);
  List.iter (fun v -> Health.record_candidate t.health v.View.name) cands;
  let match_one v sub =
    match
      Matcher.match_view ~relaxed_nulls:t.relaxed_nulls ~backjoins:t.backjoins
        ~fresh_only ?spans:sub ~query:q v
    with
    | Ok s -> Some s
    | Error _ -> None
  in
  let subs =
    List.filter_map
      (fun v ->
        (* the span name is built only when a trace records it *)
        match spans with
        | None -> match_one v None
        | Some _ -> Mv_obs.Span.wrap spans ("match:" ^ v.View.name) (match_one v))
      cands
  in
  Mv_obs.Instrument.add (t.rule.h_matched ()) (List.length subs);
  Mv_obs.Instrument.add (t.rule.h_substitutes ()) (List.length subs);
  List.iter
    (fun (s : Substitute.t) ->
      Health.record_matched t.health s.Substitute.view.View.name)
    subs;
  Mv_obs.Instrument.exit_into (t.rule.h_time ()) span;
  subs

(* ---- freshness (DESIGN.md §12) ----

   Staleness marks live on the shared [View.t] descriptors (an atomic
   bool), so marking needs no epoch bump or republication: snapshots share
   the descriptors and the population did not change. Matching behavior is
   unchanged unless a caller opts into [fresh_only]. *)

let mark_stale t ~tables : int =
  let hit (v : View.t) =
    List.exists (fun tn -> Mv_util.Sset.mem tn v.View.source_tables) tables
  in
  List.fold_left
    (fun n v ->
      if hit v && not (View.is_stale v) then begin
        View.mark_stale v;
        Health.record_stale t.health v.View.name;
        n + 1
      end
      else n)
    0 t.views

(* ---- why-not ---- *)

type explanation =
  | Filtered of Filter_tree.stage
  | Rejected of Reject.t
  | Matched of Substitute.t

(* Account for every registered view: the exact filter-tree stage that
   pruned it, the [Reject.t] the matcher returned, or its substitute.
   Filtering is replayed per view via {!Filter_tree.provenance} (exact with
   respect to {!candidates}); views that pass are re-tested through the
   real matcher. Deliberately bumps NO [rule.*] counters — explanation is a
   diagnostic read, not a rule invocation. With [use_filter] off every view
   goes straight to the matcher, mirroring the "No Filter" configuration. *)
let explain ?snap ?(fresh_only = false) t (q : A.t) :
    (View.t * explanation) list =
  let s = current ?snap t in
  let qi = Filter_tree.query_info q in
  List.map
    (fun v ->
      let fate =
        if t.use_filter then Filter_tree.fate s.snap_tree qi v
        else Filter_tree.Passed
      in
      match fate with
      | Filter_tree.Pruned stage -> (v, Filtered stage)
      | Filter_tree.Passed -> (
          match
            Matcher.match_view ~relaxed_nulls:t.relaxed_nulls
              ~backjoins:t.backjoins ~fresh_only ~query:q v
          with
          | Ok sub -> (v, Matched sub)
          | Error e -> (v, Rejected e)))
    s.snap_views

let find_substitutes_spjg t (spjg : Mv_relalg.Spjg.t) =
  find_substitutes t (A.analyze t.schema spjg)

(* Union substitutes (section 7) over the filtered... no: views that fail
   the range test are pruned by the filter tree's range level, so the
   union finder scans the full population restricted by the cheap table
   condition. *)
let find_union_substitutes ?snap ?(fresh_only = false) t (q : A.t) :
    Union_substitute.t option =
  let coarse =
    List.filter
      (fun v ->
        Mv_util.Bitset.subset q.A.table_key v.View.keys.View.source_tables
        && not (fresh_only && View.is_stale v))
      (current ?snap t).snap_views
  in
  Union_match.find ~relaxed_nulls:t.relaxed_nulls ~backjoins:t.backjoins q
    coarse

let reset_stats t = Obs.reset t.obs
