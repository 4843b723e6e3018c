(** Memo-based transformation optimizer.

    Conceptually a scaled-down Cascades: the query's SPJ core is explored
    bottom-up over connected table subsets; every enumerated subset is an
    SPJG subexpression on which the view-matching rule (Registry) is
    invoked, exactly like SQL Server invokes the rule on every SPJG
    expression the memo generates. Substitutes become leaf plans and
    compete on cost with join plans. Aggregation queries additionally
    explore preaggregated alternatives (Example 4's group-by pushdown), so
    a view like v4 can serve a query that also joins tables the view does
    not contain.

    Two switches reproduce the paper's four measurement configurations:
    [produce_substitutes] ("Alt") keeps/discards the rule's output, and the
    registry's [use_filter] enables/disables the filter tree. *)

open Mv_base
module Spjg = Mv_relalg.Spjg
module A = Mv_relalg.Analysis

type config = { produce_substitutes : bool }

let default_config = { produce_substitutes = true }

type result = { plan : Plan.t; cost : float; rows : float; used_views : bool }

(* binding spec of a leaf: bare-column outputs rebind to their base column,
   everything else to a synthetic #agg column *)
let leaf_binds (block : Spjg.t) =
  List.map
    (fun (o : Spjg.out_item) ->
      match o.Spjg.def with
      | Spjg.Scalar (Expr.Col c) -> (o.Spjg.name, c)
      | _ -> (o.Spjg.name, Col.make "#agg" o.Spjg.name))
    block.Spjg.out

let scan_leaf stats (block : Spjg.t) =
  let rows = Cost.block_rows stats block in
  let base =
    List.fold_left
      (fun acc t ->
        acc +. float_of_int (max 1 (Mv_catalog.Stats.row_count stats t)))
      0.0 block.Spjg.tables
  in
  Plan.Leaf
    {
      source = Plan.Computed block;
      binds = leaf_binds block;
      est_rows = rows;
      est_cost = base +. rows;
    }

(* The leaf plan of a substitute: a scan of the view (index-aware) plus
   any regrouping and backjoin surcharges. Every substitute leaf is costed
   in full and competes in the memo's [consider]. *)
let view_leaf schema stats (block : Spjg.t) (s : Mv_core.Substitute.t) :
    Plan.t =
  let view = s.Mv_core.Substitute.view in
  (* Leaf output estimate: with a statistics entry for the view itself
     (built from its actual contents at materialization time or refreshed
     by IVM), estimate from the substitute's own block — compensating
     predicates then see the view's histograms instead of base-table
     selectivities (ROADMAP item 4; the q_bigcust q-error of the exec
     bench came from exactly this gap). Without view-level statistics the
     base-table estimate is used, so statistics-only runs are unchanged. *)
  let rows =
    if Option.is_some (Mv_catalog.Stats.table stats view.Mv_core.View.name)
    then Cost.block_rows stats s.Mv_core.Substitute.block
    else Cost.block_rows stats block
  in
  let vrows = float_of_int (max 1 view.Mv_core.View.row_count) in
  (* cost unit = rows x relative row width: the view projects a subset of
     its tables' columns, so scanning it moves proportionally less data
     than scanning the base tables *)
  let width =
    let out = List.length (Mv_core.View.spjg view).Spjg.out in
    let total =
      List.fold_left
        (fun acc t ->
          acc
          + List.length
              (Mv_catalog.Table_def.column_names
                 (Mv_catalog.Schema.table_exn schema t)))
        0
        (Mv_core.View.spjg view).Spjg.tables
    in
    Float.max 0.15 (float_of_int out /. float_of_int (max 1 total))
  in
  (* secondary indexes on the view are considered automatically: a
     compensating equality on an index prefix (or a range on its leading
     column) turns the full view scan into an index lookup *)
  let scan_cost =
    let cl =
      Mv_relalg.Classify.classify
        (List.filter
           (fun p ->
             List.for_all
               (fun (c : Col.t) -> c.Col.tbl = view.Mv_core.View.name)
               (Pred.columns p))
           s.Mv_core.Substitute.block.Spjg.where)
    in
    let eq_cols, range_cols =
      List.fold_left
        (fun (eqs, rngs) (c, op, _) ->
          match op with
          | Pred.Eq -> (c.Col.col :: eqs, rngs)
          | _ -> (eqs, c.Col.col :: rngs))
        ([], []) cl.Mv_relalg.Classify.ranges
    in
    let indexed =
      List.exists
        (fun ix ->
          match ix with
          | [] -> false
          | first :: _ -> List.mem first eq_cols || List.mem first range_cols)
        view.Mv_core.View.indexes
    in
    if indexed then
      (* log-time positioning plus the qualifying fraction of the view *)
      (Float.log2 (vrows +. 2.0) +. Float.min vrows (rows *. 2.0)) *. width
    else vrows *. width
  in
  let group_extra =
    if Mv_core.Substitute.uses_regrouping s then scan_cost else 0.0
  in
  (* backjoined base tables are re-scanned *)
  let backjoin_extra =
    List.fold_left
      (fun acc t ->
        acc +. float_of_int (max 1 (Mv_catalog.Stats.row_count stats t)))
      0.0 s.Mv_core.Substitute.backjoins
  in
  Plan.Leaf
    {
      source = Plan.Via s;
      binds = leaf_binds block;
      est_rows = rows;
      est_cost = scan_cost +. group_extra +. backjoin_extra +. rows;
    }

(* The numbers the memo competes on, exposed for the advisor's benefit
   model ([Advisor]): a substitute leaf's estimated (cost, rows), and the
   direct computed-leaf cost of the same block. *)
let substitute_cost schema stats (block : Spjg.t) (s : Mv_core.Substitute.t) :
    float * float =
  let p = view_leaf schema stats block s in
  (Plan.est_cost p, Plan.est_rows p)

let direct_cost stats (block : Spjg.t) : float =
  Plan.est_cost (scan_leaf stats block)

(* ---- the memo ---- *)

type entry = { plan : Plan.t; rows : float; block : Spjg.t }

(* The SPJG subexpressions the memo invokes the view-matching rule on: one
   SPJ block per connected table subset, plus the whole query when it
   aggregates (preaggregated inner blocks are left out — the advisor's
   benefit model, which mirrors this enumeration, stays conservative:
   the real optimizer can only do better than the model predicts). *)
let enumerate_blocks (query : Spjg.t) : Spjg.t list =
  let g = Block.of_query query in
  let blocks = ref [] in
  for mask = Block.full g downto 1 do
    if Block.connected g mask then blocks := Block.sub_block g mask :: !blocks
  done;
  if query.Spjg.group_by = None then !blocks else !blocks @ [ query ]

let cheaper a b = if Plan.est_cost a <= Plan.est_cost b then a else b

(* Is pushing the group-by below the join boundary safe for [remaining]
   tables? Each must be joined on a full unique key (see DESIGN.md):
   then every preaggregated row matches at most one row per remaining
   table, so sums are never duplicated. *)
let safe_preagg (qa : A.t) schema remaining =
  List.for_all
    (fun r ->
      let td = Mv_catalog.Schema.table_exn schema r in
      let keys =
        td.Mv_catalog.Table_def.primary_key :: td.Mv_catalog.Table_def.unique_keys
      in
      List.exists
        (fun key ->
          key <> []
          && List.for_all
               (fun k ->
                 let c = Col.make r k in
                 Col.Set.exists
                   (fun c' -> c'.Col.tbl <> r)
                   (Mv_relalg.Equiv.class_of qa.A.equiv c))
               key)
        keys)
    remaining

(* The optimizer's instruments on one obs registry, each resolved on first
   use ({!Mv_obs.Registry.resolver}) so the per-block bumps skip the name
   lookup and the registry lock. Cached for the last registry seen, as the
   filter tree caches its level counters: a process optimizing against
   one registry resolves each name once. *)
type handles = {
  h_obs : Mv_obs.Registry.t;
  analyze_calls : unit -> Mv_obs.Instrument.counter;
  memo_hits : unit -> Mv_obs.Instrument.counter;
  subexpressions : unit -> Mv_obs.Instrument.counter;
  considered : unit -> Mv_obs.Instrument.counter;
  wins : unit -> Mv_obs.Instrument.counter;
  losses : unit -> Mv_obs.Instrument.counter;
  memo_groups : unit -> Mv_obs.Instrument.counter;
  phase_analyze : unit -> Mv_obs.Instrument.histogram;
  phase_match : unit -> Mv_obs.Instrument.histogram;
  phase_cost : unit -> Mv_obs.Instrument.histogram;
  phase_total : unit -> Mv_obs.Instrument.histogram;
  calls : unit -> Mv_obs.Instrument.counter;
  using_views : unit -> Mv_obs.Instrument.counter;
}

let handles_cache : handles option Atomic.t = Atomic.make None

let handles_for obs =
  match Atomic.get handles_cache with
  | Some h when h.h_obs == obs -> h
  | _ ->
      let counter name =
        Mv_obs.Registry.resolver Mv_obs.Registry.counter obs ("optimizer." ^ name)
      in
      let phase name =
        Mv_obs.Registry.resolver Mv_obs.Registry.histogram obs
          ("optimizer.phase." ^ name)
      in
      let h =
        {
          h_obs = obs;
          analyze_calls = counter "analyze.calls";
          memo_hits = counter "analyze.memo_hits";
          subexpressions = counter "subexpressions";
          considered = counter "substitutes.considered";
          wins = counter "substitutes.wins";
          losses = counter "substitutes.losses";
          memo_groups = counter "memo.groups";
          phase_analyze = phase "analyze";
          phase_match = phase "match";
          phase_cost = phase "cost";
          phase_total = phase "total";
          calls = counter "calls";
          using_views = counter "plans.using_views";
        }
      in
      Atomic.set handles_cache (Some h);
      h

let optimize_body ~(config : config) ?spans ?snap ?record
    (registry : Mv_core.Registry.t)
    (stats : Mv_catalog.Stats.t) (query : Spjg.t) : result =
  let schema = registry.Mv_core.Registry.schema in
  let h = handles_for registry.Mv_core.Registry.obs in
  (* Per-phase latency histograms (one sample per phase activity, wall
     seconds), read back by the bench harness as p50/p90/p99 per phase. *)
  let h_analyze = h.phase_analyze () in
  let h_match = h.phase_match () in
  let h_cost = h.phase_cost () in
  let g = Block.of_query query in
  let full = Block.full g in
  (* The memo and the analysis memo are indexed by table mask. A block
     names each table once, so its table count is at most the schema's:
     7 in the section 5 workload, 8 in TPC-H, so at most 256 entries. *)
  let memo : entry option array = Array.make (full + 1) None in
  let groups = ref 0 in
  let query_connected = Block.connected g full in
  (* Per-optimization analysis memo: the blocks over one table subset (its
     SPJ block, the whole query at the group-by stage on the full set, its
     preaggregated inner block) share their tables and WHERE, and every
     derived analysis field depends on the block through that core alone
     — so each subexpression is analyzed exactly once and cheaply rebound
     to the other blocks (see {!A.rebind}). *)
  let analyses : A.t option array = Array.make (full + 1) None in
  let analyze mask block =
    Mv_obs.Instrument.time_hist h_analyze (fun () ->
        Mv_obs.Instrument.incr (h.analyze_calls ());
        match analyses.(mask) with
        | Some a ->
            Mv_obs.Instrument.incr (h.memo_hits ());
            if a.A.spjg == block then a else A.rebind a block
        | None ->
            Mv_obs.Span.wrap spans "analyze" (fun _ ->
                let a = A.analyze schema block in
                analyses.(mask) <- Some a;
                a))
  in
  (* the view-matching rule, timed once per invocation; the pinned snapshot
     (if any) and the recorder ride along into every rule invocation, so
     all subexpressions of this optimization see one registry state *)
  let find_subs ?spans qa =
    Mv_obs.Instrument.time_hist h_match (fun () ->
        Mv_core.Registry.find_substitutes ?spans ?snap ?record registry qa)
  in
  (* invoke the view-matching rule on the block of a table subset; returns
     one leaf plan per substitute *)
  let rule_leaves mask block =
    Mv_obs.Instrument.incr (h.subexpressions ());
    Mv_obs.Span.wrap spans "rule"
      ~attrs:(fun () ->
        [ ("tables", Mv_obs.Span.Str (String.concat "," block.Spjg.tables)) ])
      (fun sub ->
        let subs = find_subs ?spans:sub (analyze mask block) in
        Mv_obs.Span.wrap sub "cost" (fun _ ->
            Mv_obs.Instrument.time_hist h_cost (fun () ->
                if config.produce_substitutes then
                  List.map (view_leaf schema stats block) subs
                else [])))
  in
  (* substitute leaves competed on cost against [winner]: score them *)
  let score_substitutes vleaves winner =
    match vleaves with
    | [] -> ()
    | _ :: _ ->
        let won =
          match winner with
          | Some (Plan.Leaf { source = Plan.Via _; _ }) -> true
          | _ -> false
        in
        Mv_obs.Instrument.add (h.considered ()) (List.length vleaves);
        if won then Mv_obs.Instrument.incr (h.wins ());
        Mv_obs.Instrument.add (h.losses ())
          (List.length vleaves - if won then 1 else 0)
  in
  (* Masks ascending, splits from [(mask-1) land mask] downwards with
     [a < b]: cost ties go to the alternative considered first, so this
     order decides among equal-cost plans. *)
  for mask = 1 to full do
    let is_conn = Block.connected g mask in
    (* disconnected queries (no workload generates them, but users can
       write them) fall back to exhaustive enumeration with cartesian
       joins *)
    if is_conn || not query_connected then begin
      let block = Block.sub_block g mask in
      let rows = Cost.block_rows stats block in
      let best = ref None in
      let consider p =
        best := Some (match !best with None -> p | Some q -> cheaper p q)
      in
      if mask land (mask - 1) = 0 then consider (scan_leaf stats block)
      else begin
        (* join splits *)
        let sub = ref ((mask - 1) land mask) in
        while !sub > 0 do
          let a = !sub and b = mask land lnot !sub in
          if a < b then begin
            match (memo.(a), memo.(b)) with
            | Some ea, Some eb ->
                let keys = Block.keys g a b in
                if keys <> [] || not is_conn then begin
                  let cost =
                    Plan.est_cost ea.plan +. Plan.est_cost eb.plan
                    +. ea.rows +. eb.rows +. rows
                  in
                  (* build both orders conceptually; cost model is symmetric
                     so one suffices *)
                  consider
                    (Plan.Join
                       {
                         left = ea.plan;
                         right = eb.plan;
                         keys;
                         post = Block.post g a b;
                         est_rows = rows;
                         est_cost = cost;
                       })
                end
            | _ -> ()
          end;
          sub := (!sub - 1) land mask
        done
      end;
      if is_conn then begin
        let vleaves = rule_leaves mask block in
        List.iter consider vleaves;
        score_substitutes vleaves !best
      end;
      match !best with
      | Some plan ->
          memo.(mask) <- Some { plan; rows; block };
          incr groups
      | None -> ()
    end
  done;
  Mv_obs.Instrument.add (h.memo_groups ()) !groups;
  let entry mask =
    match memo.(mask) with
    | Some e -> e
    | None -> failwith "optimizer: no plan for a table subset"
  in
  let spj_entry = entry full in
  match query.Spjg.group_by with
  | None ->
      let plan = spj_entry.plan in
      {
        plan;
        cost = Plan.est_cost plan;
        rows = Plan.est_rows plan;
        used_views = Plan.uses_view plan;
      }
  | Some gq ->
      let qa = analyze full query in
      let agg_over input out =
        let in_rows = Plan.est_rows input in
        let rows = Cost.group_rows stats ~input:in_rows gq in
        Plan.Aggregate
          {
            input;
            group_by = gq;
            out;
            est_rows = rows;
            est_cost = Plan.est_cost input +. in_rows;
          }
      in
      let baseline = agg_over spj_entry.plan query.Spjg.out in
      let best = ref baseline in
      let agg_considered = ref 0 in
      let consider p = if Plan.est_cost p < Plan.est_cost !best then best := p in
      (* whole-query substitutes *)
      (let vleaves = rule_leaves full query in
       agg_considered := !agg_considered + List.length vleaves;
       List.iter consider vleaves);
      (* preaggregated alternatives: the outer aggregation is rewritten
         over the preaggregated bindings, when every output has such a
         rewrite. SUM0 and SUM/SUM have none, and AVG(e) becomes
         SUM(partial sums) / SUM(cnt) with cnt = COUNT_BIG( * ), which
         divides by the non-null inputs only when e reads no nullable
         column *)
      let cnt = Expr.Col (Col.make "#agg" "cnt") in
      let outer_items =
        List.map
          (fun (o : Spjg.out_item) ->
            let partial = Expr.Col (Col.make "#agg" ("s_" ^ o.Spjg.name)) in
            match o.Spjg.def with
            | Spjg.Scalar e -> Some (Spjg.scalar o.Spjg.name e)
            | Spjg.Aggregate Spjg.Count_star ->
                Some (Spjg.aggregate o.Spjg.name (Spjg.Sum0 cnt))
            | Spjg.Aggregate (Spjg.Sum _) ->
                Some (Spjg.aggregate o.Spjg.name (Spjg.Sum partial))
            | Spjg.Aggregate (Spjg.Avg e)
              when not (Mv_catalog.Schema.reads_nullable schema e) ->
                Some
                  (Spjg.aggregate o.Spjg.name (Spjg.Sum_div_sum (partial, cnt)))
            | Spjg.Aggregate (Spjg.Avg _ | Spjg.Sum_div_sum _ | Spjg.Sum0 _) ->
                None)
          query.Spjg.out
      in
      let preaggregable = List.for_all Option.is_some outer_items in
      let outer_out = List.filter_map Fun.id outer_items in
      (* join a preaggregated plan with the remaining tables, greedily;
         they join on unique keys, so the result cardinality stays at the
         inner side's *)
      let rec attach plan joined rest =
        if rest = 0 then plan
        else
          let r = Block.next g ~joined rest in
          let rplan = scan_leaf stats (entry r).block in
          let rows = Plan.est_rows plan in
          attach
            (Plan.Join
               {
                 left = plan;
                 right = rplan;
                 keys = Block.keys g joined r;
                 post = Block.post g joined r;
                 est_rows = rows;
                 est_cost =
                   Plan.est_cost plan +. Plan.est_cost rplan
                   +. Plan.est_rows plan +. Plan.est_rows rplan +. rows;
               })
            (joined lor r) (rest land lnot r)
      in
      for mask = 1 to full - 1 do
        if preaggregable && Block.connected g mask then begin
          let remaining = full land lnot mask in
          match Block.preagg_block g mask with
          | Some pa
            when safe_preagg qa schema (Block.names g remaining)
                 && List.for_all
                      (function Expr.Col _ -> true | _ -> false)
                      (Option.value ~default:[]
                         pa.Block.block.Spjg.group_by) ->
              let inner_views = rule_leaves mask pa.Block.block in
              agg_considered := !agg_considered + List.length inner_views;
              List.iter
                (fun inner ->
                  consider (agg_over (attach inner mask remaining) outer_out))
                (scan_leaf stats pa.Block.block :: inner_views)
          | _ -> ()
        end
      done;
      let plan = !best in
      (* aggregation-stage scoring: did any alternative derived from a
         substitute (whole-query or preaggregated) beat the agg-over-SPJ
         baseline? *)
      if !agg_considered > 0 then begin
        let won = plan != baseline && Plan.uses_view plan in
        Mv_obs.Instrument.add (h.considered ()) !agg_considered;
        if won then Mv_obs.Instrument.incr (h.wins ());
        Mv_obs.Instrument.add (h.losses ())
          (!agg_considered - if won then 1 else 0)
      end;
      {
        plan;
        cost = Plan.est_cost plan;
        rows = Plan.est_rows plan;
        used_views = Plan.uses_view plan;
      }

let optimize ?(config = default_config) ?spans ?snap ?record
    (registry : Mv_core.Registry.t) (stats : Mv_catalog.Stats.t)
    (query : Spjg.t) : result =
  let h = handles_for registry.Mv_core.Registry.obs in
  let r =
    Mv_obs.Instrument.time_hist (h.phase_total ()) (fun () ->
        Mv_obs.Span.wrap spans "optimize"
          ~attrs:(fun () ->
            [
              ("tables", Mv_obs.Span.Str (String.concat "," query.Spjg.tables));
              ("aggregate", Mv_obs.Span.Bool (query.Spjg.group_by <> None));
            ])
          (fun spans ->
            let r =
              optimize_body ~config ?spans ?snap ?record registry stats
                query
            in
            Mv_obs.Span.annotate spans (fun () ->
                [
                  ("cost", Mv_obs.Span.Float r.cost);
                  ("used_views", Mv_obs.Span.Bool r.used_views);
                ]);
            r))
  in
  Mv_obs.Instrument.incr (h.calls ());
  (* ledger attribution (DESIGN.md §14): every call logs the query it
     optimized; a winning plan credits each view leaf with "chosen" plus
     the estimated cost saved against computing the query directly.
     Serving-side plan-table hits are attributed separately as cache
     hits. *)
  let health = registry.Mv_core.Registry.health in
  Mv_core.Health.record_query health query;
  if r.used_views then begin
    Mv_obs.Instrument.incr (h.using_views ());
    let vnames = Plan.views_used r.plan in
    let base = direct_cost stats query in
    let benefit =
      Float.max 0.0 (base -. r.cost)
      /. float_of_int (max 1 (List.length vnames))
    in
    List.iter
      (fun n -> Mv_core.Health.record_chosen health ~benefit n)
      vnames
  end;
  r
