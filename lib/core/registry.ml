(** The view registry: all materialized views, indexed by a filter tree,
    with the counters the paper's evaluation reports (candidate fraction,
    pass rate, substitutes per invocation). This is the entry point the
    optimizer's view-matching rule calls.

    All measurement goes through an [Mv_obs] registry (one scoped instance
    per view registry unless the caller shares one): the rule maintains the
    [rule.*] counters and the [rule.time] wall+CPU timer, the filter tree
    contributes its per-level [filter_tree.*] counters. A per-invocation
    record (tables, candidates, match verdicts, wall time) is the [rule]
    span of a traced optimization ({!Mv_obs.Span}). *)

module A = Mv_relalg.Analysis
module Obs = Mv_obs.Registry

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
  use_filter : bool;
  obs : Obs.t;
  rule : rule_handles;
  health : Health.t;
  state : snapshot Atomic.t;
      (** replaced under [write] by every effective add or drop
          (DESIGN.md §10) *)
  write : Mutex.t;  (** serializes mutations; never taken on a read path *)
}

exception Duplicate_view of string

let create ?(relaxed_nulls = false) ?(backjoins = false) ?(use_filter = true)
    ?obs schema =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let plan =
    if backjoins then Filter_tree.backjoin_plan else Filter_tree.default_plan
  in
  {
    schema;
    relaxed_nulls;
    backjoins;
    use_filter;
    obs;
    rule = rule_handles obs;
    health = Health.create ();
    state =
      Atomic.make
        {
          snap_epoch = 0;
          snap_views = [];
          snap_tree = Filter_tree.create ~plan ();
        };
    write = Mutex.create ();
  }

let snapshot t = Atomic.get t.state

let epoch t = (snapshot t).snap_epoch

let view_count t = List.length (snapshot t).snap_views

let find_view t name =
  List.find_opt (fun v -> v.View.name = name) (snapshot t).snap_views

(* Call with [t.write] held. The interners are frozen before the
   publication, so reader-side key building over the symbols a new view
   introduced stays on their lock-free path. *)
let publish t (s : snapshot) ~views ~tree =
  Mv_relalg.Intern.freeze ();
  Atomic.set t.state
    { snap_epoch = s.snap_epoch + 1; snap_views = views; snap_tree = tree }

(* [make] runs under the write lock after the duplicate check, so an
   exception (Duplicate_view, View.Rejected) publishes nothing. *)
let add t ~name make =
  Mutex.protect t.write (fun () ->
      let s = Atomic.get t.state in
      if List.exists (fun v -> v.View.name = name) s.snap_views then
        raise (Duplicate_view name);
      let view = make () in
      publish t s ~views:(s.snap_views @ [ view ])
        ~tree:(Filter_tree.insert s.snap_tree view);
      view)

let add_view t ?(row_count = 0) ?(indexes = []) ~name spjg : View.t =
  add t ~name (fun () ->
      View.create ~relaxed_nulls:t.relaxed_nulls ~row_count ~indexes t.schema
        ~name spjg)

(* Register an already-created view descriptor (lets experiment sweeps
   share one descriptor across many registries instead of re-analyzing). *)
let add_prebuilt t (view : View.t) =
  ignore (add t ~name:view.View.name (fun () -> view))

(* A missing name publishes nothing, so the epoch stays. *)
let remove_view t name =
  Mutex.protect t.write (fun () ->
      let s = Atomic.get t.state in
      match List.find_opt (fun v -> v.View.name = name) s.snap_views with
      | None -> ()
      | Some v ->
          publish t s
            ~views:(List.filter (fun x -> x.View.name <> name) s.snap_views)
            ~tree:(Filter_tree.remove s.snap_tree v))

(* The registry state a read runs against: the caller's pinned snapshot
   or the published one. *)
let current ?snap t = match snap with Some s -> s | None -> snapshot t

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
   bool), so marking needs no epoch bump or publication: snapshots share
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
    0 (snapshot t).snap_views

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
