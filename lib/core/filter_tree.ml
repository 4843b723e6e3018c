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

type plan = P_level of level * plan | P_split of plan * plan | P_bucket

type stage =
  | Stage_level of level
  | Stage_agg_split
  | Stage_strong_range
  | Stage_sum_args

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
  sum_classes : Bitset.t list;
      (** query class of each bare-column SUM or AVG argument *)
  is_aggregate : bool;
}

let query_info (q : A.t) : query_info = A.keys q

(* ---- the levels ----

   All level keys are interned bitsets ({!Mv_util.Bitset} over the
   {!Mv_relalg.Intern} domains): the view side is precomputed once at
   registration ({!View.keys}), the query side once per rule invocation,
   and every subset / disjointness test the navigation performs is a
   word-level AND loop.

   One description per level holds everything the tree knows about it:
   its name, its slot in the per-search flow counts, the view's key, and
   the search condition as a traversal direction and a monotone
   predicate on node keys. Interning preserves monotonicity: string-set
   inclusion maps to bitset inclusion bit-for-bit, so `Up/`Down pruning
   stays sound (see DESIGN.md). Every field is a constant or a closed
   function, so reading one allocates nothing. *)

type desc = {
  level : level;
  name : string;
  index : int;
  key : View.keys -> Bitset.t;
  dir : [ `Down | `Up ];
  pred : query_info -> Bitset.t -> bool;
}

(* Every class of [classes] meets [k]: the output-column, grouping-column
   and SUM-argument conditions. *)
let rec covers k = function
  | [] -> true
  | cls :: rest -> (not (Bitset.inter_empty k cls)) && covers k rest

let hubs =
  { level = Hubs; name = "hubs"; index = 0; key = (fun k -> k.View.hub);
    dir = `Up; pred = (fun qi k -> Bitset.subset k qi.source_tables) }

let source_tables =
  { level = Source_tables; name = "source-tables"; index = 1;
    key = (fun k -> k.View.source_tables);
    dir = `Down; pred = (fun qi k -> Bitset.subset qi.source_tables k) }

let output_exprs =
  { level = Output_exprs; name = "output-expressions"; index = 2;
    key = (fun k -> k.View.output_exprs);
    dir = `Down; pred = (fun qi k -> Bitset.subset qi.output_expr_templates k) }

let output_cols =
  { level = Output_cols; name = "output-columns"; index = 3;
    key = (fun k -> k.View.output_cols);
    dir = `Down; pred = (fun qi k -> covers k qi.output_classes) }

let residuals =
  { level = Residuals; name = "residual-predicates"; index = 4;
    key = (fun k -> k.View.residuals);
    dir = `Up; pred = (fun qi k -> Bitset.subset k qi.residual_templates) }

let range_cols =
  { level = Range_cols; name = "range-constrained-columns"; index = 5;
    key = (fun k -> k.View.range_cols);
    dir = `Up; pred = (fun qi k -> Bitset.subset k qi.extended_range_cols) }

let grouping_exprs =
  { level = Grouping_exprs; name = "grouping-expressions"; index = 6;
    key = (fun k -> k.View.grouping_exprs);
    dir = `Down;
    pred = (fun qi k -> Bitset.subset qi.grouping_expr_templates k) }

let grouping_cols =
  { level = Grouping_cols; name = "grouping-columns"; index = 7;
    key = (fun k -> k.View.grouping_cols);
    dir = `Down; pred = (fun qi k -> covers k qi.grouping_classes) }

let descs =
  [| hubs; source_tables; output_exprs; output_cols; residuals; range_cols;
     grouping_exprs; grouping_cols |]

let desc = function
  | Hubs -> hubs
  | Source_tables -> source_tables
  | Output_exprs -> output_exprs
  | Output_cols -> output_cols
  | Residuals -> residuals
  | Range_cols -> range_cols
  | Grouping_exprs -> grouping_exprs
  | Grouping_cols -> grouping_cols

let level_name l = (desc l).name

(* The two checks that run on each navigated view instead of as levels.
   The strong range-constraint condition (section 4.2.5) cannot be
   indexed directly (it involves the view's full, class-aware constraint
   list), so the tree navigates by the weak condition and this check
   runs once per navigated view. *)
let strong_range_ok (qi : query_info) (v : View.t) =
  List.for_all
    (fun cls -> not (Bitset.inter_empty cls qi.extended_range_cols))
    v.View.keys.View.range_classes

(* The SUM-argument condition, a ninth beside section 4.2's eight: an
   aggregation view answers a grouped query only with a SUM over an
   argument equivalent to each bare-column SUM or AVG argument of the
   query, so each of the query's classes must meet the view's SUM key
   (DESIGN.md §5). It runs after the strong range check, on aggregation
   views only, rather than as a level: a level would split the
   aggregation buckets and reorder the views that survive, and candidate
   order breaks cost ties. *)
let sum_args_ok (qi : query_info) (v : View.t) =
  covers v.View.keys.View.sum_args qi.sum_classes

type node =
  | Bucket of { views : View.t list; count : int }
  | Agg_split of { spj : node; agg : node }
  | Level of {
      desc : desc;
      rest : plan;
      lattice : node Lattice.t;
      nviews : int;
          (** views in this subtree — lets a search report how many
              candidates each level received and passed on without ever
              enumerating them *)
    }

let rec new_node = function
  | P_bucket -> Bucket { views = []; count = 0 }
  | P_split (ps, pa) -> Agg_split { spj = new_node ps; agg = new_node pa }
  | P_level (level, rest) ->
      Level { desc = desc level; rest; lattice = Lattice.empty; nviews = 0 }

(* Views under a node, in constant time. *)
let rec views_under = function
  | Bucket b -> b.count
  | Agg_split s -> views_under s.spj + views_under s.agg
  | Level l -> l.nviews

(* Cached counter handles: counters are resolved from the obs registry by
   dotted-name lookup, which costs a string concatenation and a hash per
   call. The handles are plain mutable records, so resolving them once
   per (tree, obs) pairing and indexing by level is safe. *)
type obs_handles = {
  h_obs : Mv_obs.Registry.t;
  h_searches : Mv_obs.Instrument.counter;
  h_flow : Mv_obs.Instrument.counter array;
      (** indexed like a search's flow counts ({!flow_slots}) *)
}

(* [handles] is the one mutable cell; {!insert} and {!remove} pass it on,
   so every version of a tree shares one handle cache. *)
type t = { plan : plan; root : node; handles : obs_handles option Atomic.t }

let create ?(plan = default_plan) () =
  { plan; root = new_node plan; handles = Atomic.make None }

(* ---- insertion and removal ----

   Both copy the nodes on the view's path and share everything else; a
   tree that has been returned is never written. Both also report the
   view's reshaped stage in [reshaped]: the first level on its path whose
   lattice gained or lost a key, or the bucket's stage
   ([Stage_strong_range]) when every key on the path was already there
   and stays. *)

let rec insert_node node (v : View.t) reshaped =
  match node with
  | Bucket b -> Bucket { views = v :: b.views; count = b.count + 1 }
  | Agg_split s ->
      if View.is_aggregate v then
        Agg_split { s with agg = insert_node s.agg v reshaped }
      else Agg_split { s with spj = insert_node s.spj v reshaped }
  | Level l ->
      let lattice =
        Lattice.update l.lattice (l.desc.key v.View.keys) (fun child ->
            let child =
              match child with
              | Some c -> c
              | None ->
                  (* every level below a new key is new too: keep the
                     first *)
                  (match !reshaped with
                  | Stage_strong_range -> reshaped := Stage_level l.desc.level
                  | Stage_level _ | Stage_agg_split | Stage_sum_args -> ());
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
  | Bucket b ->
      let views = List.filter (fun x -> x.View.name <> v.View.name) b.views in
      Bucket { views; count = List.length views }
  | Agg_split s ->
      if View.is_aggregate v then
        Agg_split { s with agg = remove_node s.agg v reshaped }
      else Agg_split { s with spj = remove_node s.spj v reshaped }
  | Level l -> (
      let key = l.desc.key v.View.keys in
      match Lattice.find l.lattice key with
      | None -> node
      | Some child ->
          let child' = remove_node child v reshaped in
          let left = views_under child' in
          if left = 0 then reshaped := Stage_level l.desc.level;
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

(* ---- search ----

   One walk per search, with one scratch record ({!Lattice.scratch}) for
   every lattice on the way, so nothing is allocated per node: the
   result list grows by one cell per candidate, and the in/out counts of
   each level (the paper's level-by-level pruning breakdown, Figures
   6-7) go to a local array, flushed to the counters once per search.

   Candidate order breaks cost ties in the memo, so it is fixed: at a
   level, the children of the keys that pass in the order of
   {!Lattice.search}'s list; at the split, the SPJ bucket before the
   aggregation subtree; in a bucket, the order of its list. Each view is
   consed onto the result as it is reached, and the two post-navigation
   checks drop views without moving the others. *)

(* The flow counts of one search: in and out per level (slots [2i] and
   [2i + 1] for the level of index [i]), then the strong range check and
   the SUM-argument check. *)
let strong_slot = 2 * Array.length descs

let sum_slot = strong_slot + 2

let flow_slots = sum_slot + 2

type walk = {
  qi : query_info;
  scratch : node Lattice.scratch;
  flow : int array;
}

let bump flow i n = Array.unsafe_set flow i (Array.unsafe_get flow i + n)

(* A check's outcome, counted in at [slot] and out at [slot + 1]. *)
let counted w slot ok =
  bump w.flow slot 1;
  if ok then bump w.flow (slot + 1) 1;
  ok

(* A navigated view, through the strong range check and, for an
   aggregation view, the SUM-argument check. *)
let post_ok w v =
  counted w strong_slot (strong_range_ok w.qi v)
  && ((not (View.is_aggregate v)) || counted w sum_slot (sum_args_ok w.qi v))

let rec walk_node w node acc =
  match node with
  | Bucket b -> walk_bucket w b.views acc
  | Agg_split s ->
      let acc = walk_node w s.spj acc in
      if w.qi.is_aggregate then walk_node w s.agg acc else acc
  | Level l ->
      let d = l.desc in
      bump w.flow (2 * d.index) l.nviews;
      let hits =
        Lattice.walk w.scratch l.lattice ~dir:d.dir ~pred:d.pred w.qi
      in
      walk_hits w ((2 * d.index) + 1) hits acc

(* The [n] children the level's walk pushed, last visited first. *)
and walk_hits w out n acc =
  if n = 0 then acc
  else
    let child = Lattice.pop w.scratch in
    bump w.flow out (views_under child);
    walk_hits w out (n - 1) (walk_node w child acc)

and walk_bucket w views acc =
  match views with
  | [] -> acc
  | v :: rest -> walk_bucket w rest (if post_ok w v then v :: acc else acc)

let counter obs name = Mv_obs.Registry.counter obs ("filter_tree." ^ name)

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
      (* every slot is set below *)
      let flow = Array.make flow_slots (counter obs "searches") in
      Array.iter
        (fun d ->
          flow.(2 * d.index) <- counter obs ("level." ^ d.name ^ ".in");
          flow.((2 * d.index) + 1) <- counter obs ("level." ^ d.name ^ ".out"))
        descs;
      flow.(strong_slot) <- counter obs "strong_range.in";
      flow.(strong_slot + 1) <- counter obs "strong_range.out";
      flow.(sum_slot) <- counter obs "sum_arguments.in";
      flow.(sum_slot + 1) <- counter obs "sum_arguments.out";
      let h =
        { h_obs = obs; h_searches = counter obs "searches"; h_flow = flow }
      in
      Atomic.set t.handles (Some h);
      h

(* Candidate views for the query's search keys. With [obs], bump
   [filter_tree.searches], per-level [filter_tree.level.<name>.in/out]
   and the post-navigation [filter_tree.strong_range.in/out] and
   [filter_tree.sum_arguments.in/out] counters. *)
let search ?obs t (qi : query_info) : View.t list =
  let w =
    { qi; scratch = Lattice.scratch (); flow = Array.make flow_slots 0 }
  in
  let found = walk_node w t.root [] in
  (match obs with
  | None -> ()
  | Some obs ->
      let h = handles_for t obs in
      Mv_obs.Instrument.incr h.h_searches;
      for i = 0 to flow_slots - 1 do
        let n = w.flow.(i) in
        if n > 0 then Mv_obs.Instrument.add h.h_flow.(i) n
      done);
  found

let candidates ?obs t (q : A.t) = search ?obs t (query_info q)

(* ---- provenance ---- *)

let stage_name = function
  | Stage_level l -> level_name l
  | Stage_agg_split -> "agg-split"
  | Stage_strong_range -> "strong-range"
  | Stage_sum_args -> "sum-arguments"

type fate = Pruned of stage | Passed

(* Why-not replay: walk the tree's plan for ONE view, applying exactly the
   predicates the search applies — each level's predicate to the view's
   own precomputed key, the agg-split branch rule, and the two
   post-navigation checks. A view reaches the candidate set iff its key
   passes the predicate at every level on its path (the search soundness
   property, qcheck-tested against a reference implementation), so this
   replay names the exact stage that pruned it without ever touching — or
   slowing — the indexed search itself. *)
let provenance t (qi : query_info) (v : View.t) : stage list * fate =
  let agg_view = View.is_aggregate v in
  let rec go plan acc =
    match plan with
    | P_level (l, rest) ->
        let acc = Stage_level l :: acc in
        let d = desc l in
        if d.pred qi (d.key v.View.keys) then go rest acc
        else (List.rev acc, Pruned (Stage_level l))
    | P_split (spj, agg) ->
        let acc = Stage_agg_split :: acc in
        if not agg_view then go spj acc
        else if qi.is_aggregate then go agg acc
        else (List.rev acc, Pruned Stage_agg_split)
    | P_bucket ->
        let acc = Stage_strong_range :: acc in
        if not (strong_range_ok qi v) then
          (List.rev acc, Pruned Stage_strong_range)
        else if not agg_view then (List.rev acc, Passed)
        else
          let acc = Stage_sum_args :: acc in
          if sum_args_ok qi v then (List.rev acc, Passed)
          else (List.rev acc, Pruned Stage_sum_args)
  in
  go t.plan []

let fate t qi v = snd (provenance t qi v)

(* The screen. Before its reshaped stage the view's path keeps every
   lattice's keys, so a search that prunes the view at a level there
   reads the same DAG and never enters the one child that changed. At the
   reshaped stage the lattice gains or loses the view's own key, and a
   key that fails a monotone predicate changes no hit of the search for
   it (DESIGN.md §8); at the bucket the view is either added to or
   removed from a list, and a post-navigation check (strong range or SUM
   arguments) then drops it from the result. The path {!provenance}
   replays is a prefix of the view's path through the tree, so the stage
   that pruned it is no later than [reshaped] exactly when [reshaped] is
   that stage, or the bucket's stage [Stage_strong_range] for either
   post-navigation check, or lies beyond the replayed path. *)
let unchanged_by t qi v ~reshaped =
  match provenance t qi v with
  | _, Passed -> false
  | path, Pruned s ->
      let s = match s with Stage_sum_args -> Stage_strong_range | s -> s in
      s = reshaped || not (List.mem reshaped path)

let stages t =
  let rec go = function
    | P_bucket -> []
    | P_level (l, rest) -> Stage_level l :: go rest
    | P_split (spj, agg) -> (Stage_agg_split :: go spj) @ go agg
  in
  go t.plan @ [ Stage_strong_range; Stage_sum_args ]

(* Number of lattice nodes across all levels, for diagnostics. *)
let rec node_count = function
  | Bucket _ -> 0
  | Agg_split s -> node_count s.spj + node_count s.agg
  | Level l ->
      Lattice.fold
        (fun _ child acc -> acc + node_count child)
        l.lattice (Lattice.size l.lattice)

let stats t = node_count t.root
