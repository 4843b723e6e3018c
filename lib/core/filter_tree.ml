(** The filter tree of section 4: a stack of lattice indexes, one per
    partitioning condition, that narrows the view population to a small
    candidate set before the expensive per-view tests run.

    Level order follows the paper's implementation: hubs, source tables,
    output expressions, output columns, residual constraints, range
    constraints; aggregation views then get two more levels (grouping
    expressions, grouping columns) while SPJ views terminate in their own
    bucket — an SPJ view can answer an aggregation query, but an
    aggregation view can never answer an SPJ query. *)

module Bitset = Mv_util.Bitset
module A = Mv_relalg.Analysis

type level =
  | Hubs
  | Source_tables
  | Output_exprs
  | Output_cols
  | Residuals
  | Range_cols
  | Grouping_exprs
  | Grouping_cols

let level_name = function
  | Hubs -> "hubs"
  | Source_tables -> "source-tables"
  | Output_exprs -> "output-expressions"
  | Output_cols -> "output-columns"
  | Residuals -> "residual-predicates"
  | Range_cols -> "range-constrained-columns"
  | Grouping_exprs -> "grouping-expressions"
  | Grouping_cols -> "grouping-columns"

type plan = P_level of level * plan | P_split of plan * plan | P_bucket

type stage =
  | Stage_level of level
  | Stage_agg_split
  | Stage_strong_range

(* Levels of a plan in navigation order (split branches concatenated). *)
let rec plan_levels = function
  | P_bucket -> []
  | P_level (l, rest) -> l :: plan_levels rest
  | P_split (a, b) -> plan_levels a @ plan_levels b

let default_plan =
  let agg = List.fold_right (fun l p -> P_level (l, p))
      [ Grouping_exprs; Grouping_cols ] P_bucket
  in
  List.fold_right (fun l p -> P_level (l, p))
    [ Hubs; Source_tables; Output_exprs; Output_cols; Residuals; Range_cols ]
    (P_split (P_bucket, agg))

(* With base-table backjoins enabled, a view missing output columns can
   still serve a query, so the two output conditions are no longer
   necessary conditions and their levels must be dropped (weaker filtering,
   still sound). *)
let backjoin_plan =
  let agg = List.fold_right (fun l p -> P_level (l, p))
      [ Grouping_exprs; Grouping_cols ] P_bucket
  in
  List.fold_right (fun l p -> P_level (l, p))
    [ Hubs; Source_tables; Residuals; Range_cols ]
    (P_split (P_bucket, agg))

type node =
  | Bucket of View.t list
  | Agg_split of { spj : node; agg : node }
  | Level of {
      level : level;
      rest : plan;
      lattice : node Lattice.t;
      nviews : int;
          (** views in this subtree — lets a search report how many
              candidates each level received and passed on without ever
              enumerating them *)
    }

let rec new_node = function
  | P_bucket -> Bucket []
  | P_split (ps, pa) -> Agg_split { spj = new_node ps; agg = new_node pa }
  | P_level (level, rest) ->
      Level { level; rest; lattice = Lattice.empty; nviews = 0 }

(* Views under a node: O(1) at levels, O(bucket size) at the leaves. *)
let rec views_under = function
  | Bucket views -> List.length views
  | Agg_split s -> views_under s.spj + views_under s.agg
  | Level l -> l.nviews

(* Cached per-level counter handles: counters are resolved from the obs
   registry by dotted-name lookup, which costs a string concatenation and a
   hash per call — far too much for something the search does at every
   visited level node. The handles are plain mutable records, so resolving
   them once per (tree, obs) pairing and indexing by level is safe. *)
type obs_handles = {
  h_obs : Mv_obs.Registry.t;
  h_searches : Mv_obs.Instrument.counter;
  h_level_in : Mv_obs.Instrument.counter array;  (** indexed by level *)
  h_level_out : Mv_obs.Instrument.counter array;
  h_strong_in : Mv_obs.Instrument.counter;
  h_strong_out : Mv_obs.Instrument.counter;
}

(* [handles] is the one mutable cell; {!insert} and {!remove} pass it on,
   so every version of a tree shares one handle cache. *)
type t = { plan : plan; root : node; handles : obs_handles option Atomic.t }

let create ?(plan = default_plan) () =
  { plan; root = new_node plan; handles = Atomic.make None }

let level_index = function
  | Hubs -> 0
  | Source_tables -> 1
  | Output_exprs -> 2
  | Output_cols -> 3
  | Residuals -> 4
  | Range_cols -> 5
  | Grouping_exprs -> 6
  | Grouping_cols -> 7

let all_levels =
  [
    Hubs;
    Source_tables;
    Output_exprs;
    Output_cols;
    Residuals;
    Range_cols;
    Grouping_exprs;
    Grouping_cols;
  ]

(* ---- keys ----

   All level keys are interned bitsets ({!Mv_util.Bitset} over the
   {!Mv_relalg.Intern} domains): the view side is precomputed once at
   registration ({!View.keys}), the query side once per rule invocation,
   and every subset / disjointness test the navigation performs is a
   word-level AND loop. *)

let view_key level (v : View.t) : Bitset.t =
  let k = v.View.keys in
  match level with
  | Hubs -> k.View.hub
  | Source_tables -> k.View.source_tables
  | Output_exprs -> k.View.output_exprs
  | Output_cols -> k.View.output_cols
  | Residuals -> k.View.residuals
  | Range_cols -> k.View.range_cols
  | Grouping_exprs -> k.View.grouping_exprs
  | Grouping_cols -> k.View.grouping_cols

(* Query-side search keys: the analysis' interned key record, built with
   the analysis (see {!A.keys}). *)
type query_info = A.keys = {
  source_tables : Bitset.t;
  output_expr_templates : Bitset.t;
  output_classes : Bitset.t list;
      (** query equivalence class (interned) of each bare-column output *)
  residual_templates : Bitset.t;
  extended_range_cols : Bitset.t;
      (** all columns of every range-constrained query class *)
  grouping_expr_templates : Bitset.t;
  grouping_classes : Bitset.t list;
  is_aggregate : bool;
}

let query_info (q : A.t) : query_info = A.keys q

(* The search condition at each level, as (traversal direction, monotone
   predicate on node keys). Interning preserves monotonicity: string-set
   inclusion maps to bitset inclusion bit-for-bit, so `Up/`Down pruning
   stays sound (see DESIGN.md). *)
let level_search level (qi : query_info) =
  let covers_classes classes k =
    List.for_all (fun cls -> not (Bitset.inter_empty k cls)) classes
  in
  match level with
  | Hubs -> (`Up, fun k -> Bitset.subset k qi.source_tables)
  | Source_tables -> (`Down, fun k -> Bitset.subset qi.source_tables k)
  | Output_exprs -> (`Down, fun k -> Bitset.subset qi.output_expr_templates k)
  | Output_cols -> (`Down, covers_classes qi.output_classes)
  | Residuals -> (`Up, fun k -> Bitset.subset k qi.residual_templates)
  | Range_cols -> (`Up, fun k -> Bitset.subset k qi.extended_range_cols)
  | Grouping_exprs ->
      (`Down, fun k -> Bitset.subset qi.grouping_expr_templates k)
  | Grouping_cols -> (`Down, covers_classes qi.grouping_classes)

(* The strong range-constraint condition (section 4.2.5) cannot be indexed
   directly (it involves the view's full, class-aware constraint list), so
   the tree navigates by the weak condition and this check runs once per
   surviving candidate. *)
let strong_range_ok (qi : query_info) (v : View.t) =
  List.for_all
    (fun cls -> not (Bitset.inter_empty cls qi.extended_range_cols))
    v.View.keys.View.range_classes

(* ---- insertion and removal ----

   Both copy the nodes on the view's path and share everything else; a
   tree that has been returned is never written. Both also report the
   view's reshaped stage in [reshaped]: the first level on its path whose
   lattice gained or lost a key, or the bucket's stage
   ([Stage_strong_range]) when every key on the path was already there
   and stays. *)

let rec insert_node node (v : View.t) reshaped =
  match node with
  | Bucket views -> Bucket (v :: views)
  | Agg_split s ->
      if View.is_aggregate v then
        Agg_split { s with agg = insert_node s.agg v reshaped }
      else Agg_split { s with spj = insert_node s.spj v reshaped }
  | Level l ->
      let lattice =
        Lattice.update l.lattice (view_key l.level v) (fun child ->
            let child =
              match child with
              | Some c -> c
              | None ->
                  (* every level below a new key is new too: keep the
                     first *)
                  (match !reshaped with
                  | Stage_strong_range -> reshaped := Stage_level l.level
                  | Stage_level _ | Stage_agg_split -> ());
                  new_node l.rest
            in
            Some (insert_node child v reshaped))
      in
      Level { l with lattice; nviews = l.nviews + 1 }

let insert t v =
  let reshaped = ref Stage_strong_range in
  let root = insert_node t.root v reshaped in
  ({ t with root }, !reshaped)

(* A lattice key whose subtree empties is removed ({!Lattice.update}
   unlinks it), so a long-lived registry that churns views never
   accumulates dead index nodes. A key empties only when every key below
   it on the path did, and the walk assigns on the way back up, so the
   last assignment to [reshaped] is the shallowest. *)
let rec remove_node node (v : View.t) reshaped =
  match node with
  | Bucket views ->
      Bucket (List.filter (fun x -> x.View.name <> v.View.name) views)
  | Agg_split s ->
      if View.is_aggregate v then
        Agg_split { s with agg = remove_node s.agg v reshaped }
      else Agg_split { s with spj = remove_node s.spj v reshaped }
  | Level l -> (
      let key = view_key l.level v in
      match Lattice.find l.lattice key with
      | None -> node
      | Some child ->
          let child' = remove_node child v reshaped in
          let left = views_under child' in
          if left = 0 then reshaped := Stage_level l.level;
          let lattice =
            Lattice.update l.lattice key (fun _ ->
                if left = 0 then None else Some child')
          in
          Level
            { l with lattice; nviews = l.nviews - (views_under child - left) })

let remove t v =
  let reshaped = ref Stage_strong_range in
  let root = remove_node t.root v reshaped in
  ({ t with root }, !reshaped)

(* ---- search ---- *)

(* [record] is called once per visited level node with the number of views
   the node received and the number its surviving children still hold —
   summed per level by the caller, this is the paper's level-by-level
   pruning breakdown (Figures 6-7). *)
let rec search_node ?record node (qi : query_info) acc =
  match node with
  | Bucket views -> List.rev_append views acc
  | Agg_split s ->
      let acc = search_node ?record s.spj qi acc in
      if qi.is_aggregate then search_node ?record s.agg qi acc else acc
  | Level l ->
      let dir, pred = level_search l.level qi in
      let hits = Lattice.search l.lattice ~dir ~pred in
      (match record with
      | None -> ()
      | Some f ->
          let out =
            List.fold_left (fun n child -> n + views_under child) 0 hits
          in
          f l.level ~in_:l.nviews ~out);
      List.fold_left
        (fun acc child -> search_node ?record child qi acc)
        acc hits

let level_counter obs level suffix =
  Mv_obs.Registry.counter obs
    ("filter_tree.level." ^ level_name level ^ "." ^ suffix)

(* Resolve (and cache) the counter handles for [obs]. The cache is keyed by
   physical equality on the registry: benches and tests that swap in a
   fresh registry get fresh handles, the common case (one registry per
   process) resolves everything exactly once. The cache cell is atomic so
   concurrent searches from several domains can share one tree: counter
   creation below is idempotent (the obs registry returns the existing
   instrument), so two domains racing here cache equivalent handles. *)
let handles_for t obs =
  match Atomic.get t.handles with
  | Some h when h.h_obs == obs -> h
  | _ ->
      let searches = Mv_obs.Registry.counter obs "filter_tree.searches" in
      let per_level suffix =
        (* every slot is overwritten below; [searches] is just a filler *)
        let arr = Array.make 8 searches in
        List.iter
          (fun l -> arr.(level_index l) <- level_counter obs l suffix)
          all_levels;
        arr
      in
      let h =
        {
          h_obs = obs;
          h_searches = searches;
          h_level_in = per_level "in";
          h_level_out = per_level "out";
          h_strong_in =
            Mv_obs.Registry.counter obs "filter_tree.strong_range.in";
          h_strong_out =
            Mv_obs.Registry.counter obs "filter_tree.strong_range.out";
        }
      in
      Atomic.set t.handles (Some h);
      h

(* Candidate views for the query's search keys. With [obs], bump
   [filter_tree.searches], per-level [filter_tree.level.<name>.in/out]
   and the post-navigation [filter_tree.strong_range.in/out] counters. *)
let search ?obs t (qi : query_info) : View.t list =
  let handles = Option.map (handles_for t) obs in
  let record =
    match handles with
    | None -> None
    | Some h ->
        Mv_obs.Instrument.incr h.h_searches;
        Some
          (fun level ~in_ ~out ->
            let i = level_index level in
            Mv_obs.Instrument.add h.h_level_in.(i) in_;
            Mv_obs.Instrument.add h.h_level_out.(i) out)
  in
  let navigated = search_node ?record t.root qi [] in
  let survivors = List.filter (strong_range_ok qi) navigated in
  (match handles with
  | None -> ()
  | Some h ->
      Mv_obs.Instrument.add h.h_strong_in (List.length navigated);
      Mv_obs.Instrument.add h.h_strong_out (List.length survivors));
  survivors

let candidates ?obs t (q : A.t) = search ?obs t (query_info q)

(* ---- provenance ---- *)

let stage_name = function
  | Stage_level l -> level_name l
  | Stage_agg_split -> "agg-split"
  | Stage_strong_range -> "strong-range"

type fate = Pruned of stage | Passed

(* Why-not replay: walk the tree's plan for ONE view, applying exactly the
   predicates the search applies — each level's [level_search] predicate to
   the view's own precomputed key, the agg-split branch rule, and the
   post-navigation strong-range check. A view reaches the candidate set iff
   its key passes the predicate at every level on its path (the search
   soundness property, qcheck-tested against a reference implementation),
   so this replay names the exact stage that pruned it without ever
   touching — or slowing — the indexed search itself. *)
let provenance t (qi : query_info) (v : View.t) : stage list * fate =
  let agg_view = View.is_aggregate v in
  let rec go plan acc =
    match plan with
    | P_level (l, rest) ->
        let acc = Stage_level l :: acc in
        let _, pred = level_search l qi in
        if pred (view_key l v) then go rest acc
        else (List.rev acc, Pruned (Stage_level l))
    | P_split (spj, agg) ->
        let acc = Stage_agg_split :: acc in
        if not agg_view then go spj acc
        else if qi.is_aggregate then go agg acc
        else (List.rev acc, Pruned Stage_agg_split)
    | P_bucket ->
        let acc = Stage_strong_range :: acc in
        if strong_range_ok qi v then (List.rev acc, Passed)
        else (List.rev acc, Pruned Stage_strong_range)
  in
  go t.plan []

let fate t qi v = snd (provenance t qi v)

(* The screen. Before its reshaped stage the view's path keeps every
   lattice's keys, so a search that prunes the view at a level there
   reads the same DAG and never enters the one child that changed. At the
   reshaped stage the lattice gains or loses the view's own key, and a
   key that fails a monotone predicate changes no hit of the search for
   it (DESIGN.md §8); at the bucket the view is either added to or
   removed from a list the strong-range check then drops it from. The
   path {!provenance} replays is a prefix of the view's path through the
   tree, so the stage that pruned it is no later than [reshaped] exactly
   when [reshaped] is that stage or lies beyond the replayed path. *)
let unchanged_by t qi v ~reshaped =
  match provenance t qi v with
  | _, Passed -> false
  | path, Pruned s -> s = reshaped || not (List.mem reshaped path)

let stages t =
  let rec go = function
    | P_bucket -> []
    | P_level (l, rest) -> Stage_level l :: go rest
    | P_split (spj, agg) -> (Stage_agg_split :: go spj) @ go agg
  in
  go t.plan @ [ Stage_strong_range ]

(* Number of lattice nodes across all levels, for diagnostics. *)
let rec node_count = function
  | Bucket _ -> 0
  | Agg_split s -> node_count s.spj + node_count s.agg
  | Level l ->
      Lattice.fold
        (fun _ child acc -> acc + node_count child)
        l.lattice (Lattice.size l.lattice)

let stats t = node_count t.root
