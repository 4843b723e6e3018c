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

type config = { produce_substitutes : bool; prune_cost_bound : bool }

let default_config = { produce_substitutes = true; prune_cost_bound = true }

type result = {
  plan : Plan.t;
  cost : float;
  rows : float;
  used_views : bool;
  pruned_views : string list;
}

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

(* Substitute leaf costing with branch-and-bound: every term is
   nonnegative, so any partial sum is a lower bound on the final cost —
   as soon as it exceeds [bound] (the best complete plan so far) the
   candidate cannot win and costing stops. [Error view_name] reports the
   prune; the strict [>] keeps exact ties alive, so pruning never changes
   which plan is chosen. *)
let view_leaf ?bound schema stats (block : Spjg.t) (s : Mv_core.Substitute.t) :
    (Plan.t, string) Result.t =
  let over =
    match bound with Some b -> fun partial -> partial > b | None -> fun _ -> false
  in
  let view = s.Mv_core.Substitute.view in
  (* Leaf output estimate: with a statistics entry for the view itself
     (built from its actual contents at materialization time or refreshed
     by IVM), estimate from the substitute's own block — compensating
     predicates then see the view's histograms instead of base-table
     selectivities (ROADMAP item 4; the q_bigcust q-error of the exec
     bench came from exactly this gap). Without view-level statistics the
     base-table estimate is used, so statistics-only runs are unchanged. *)
  let rows =
    if Mv_catalog.Stats.table stats view.Mv_core.View.name <> None then
      Cost.block_rows stats s.Mv_core.Substitute.block
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
  if over scan_cost then Error view.Mv_core.View.name
  else
    let group_extra =
      if Mv_core.Substitute.uses_regrouping s then scan_cost else 0.0
    in
    if over (scan_cost +. group_extra) then Error view.Mv_core.View.name
    else
      (* backjoined base tables are re-scanned *)
      let backjoin_extra =
        List.fold_left
          (fun acc t ->
            acc +. float_of_int (max 1 (Mv_catalog.Stats.row_count stats t)))
          0.0 s.Mv_core.Substitute.backjoins
      in
      let total = scan_cost +. group_extra +. backjoin_extra +. rows in
      if over total then Error view.Mv_core.View.name
      else
        Ok
          (Plan.Leaf
             {
               source = Plan.Via s;
               binds = leaf_binds block;
               est_rows = rows;
               est_cost = total;
             })

(* The numbers the memo competes on, exposed for the advisor's benefit
   model ([Advisor]): a substitute leaf's estimated (cost, rows) without
   any branch-and-bound bound (costing never prunes), and the direct
   computed-leaf cost of the same block. *)
let substitute_cost schema stats (block : Spjg.t) (s : Mv_core.Substitute.t) :
    float * float =
  match view_leaf schema stats block s with
  | Ok p -> (Plan.est_cost p, Plan.est_rows p)
  | Error _ -> assert false (* unreachable: no bound was passed *)

let direct_cost stats (block : Spjg.t) : float =
  Plan.est_cost (scan_leaf stats block)

(* ---- join graph over the query's tables ---- *)

let table_edges (query : Spjg.t) =
  List.filter_map
    (fun p ->
      match p with
      | Pred.Cmp (Pred.Eq, Expr.Col a, Expr.Col b)
        when a.Col.tbl <> b.Col.tbl ->
          Some (a.Col.tbl, b.Col.tbl)
      | _ -> None)
    query.Spjg.where

let connected edges tables =
  match tables with
  | [] -> false
  | first :: _ ->
      let rec grow seen =
        let next =
          List.filter
            (fun t ->
              (not (List.mem t seen))
              && List.exists
                   (fun (a, b) ->
                     (a = t && List.mem b seen) || (b = t && List.mem a seen))
                   edges)
            tables
        in
        match next with [] -> seen | _ -> grow (next @ seen)
      in
      List.length (grow [ first ]) = List.length tables

(* ---- the memo ---- *)

type entry = { plan : Plan.t; rows : float; block : Spjg.t }

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

let tables_of_mask tables mask =
  List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list tables)

(* The SPJG subexpressions the memo invokes the view-matching rule on: one
   SPJ block per connected table subset, plus the whole query when it
   aggregates (preaggregated inner blocks are left out — the advisor's
   benefit model, which mirrors this enumeration, stays conservative:
   the real optimizer can only do better than the model predicts). *)
let enumerate_blocks (query : Spjg.t) : Spjg.t list =
  let spj = Block.spj_part query in
  let tables = Array.of_list spj.Spjg.tables in
  let n = Array.length tables in
  let edges = table_edges query in
  let full = (1 lsl n) - 1 in
  let blocks = ref [] in
  for mask = full downto 1 do
    let ts = tables_of_mask tables mask in
    if connected edges ts || popcount mask = 1 then
      blocks := Block.sub_block spj ts :: !blocks
  done;
  if query.Spjg.group_by = None then !blocks else !blocks @ [ query ]

(* crossing column-equality conjuncts between two table sets *)
let cross_keys (query : Spjg.t) left_tables right_tables =
  List.filter_map
    (fun p ->
      match p with
      | Pred.Cmp (Pred.Eq, Expr.Col a, Expr.Col b) ->
          if List.mem a.Col.tbl left_tables && List.mem b.Col.tbl right_tables
          then Some (a, b)
          else if
            List.mem b.Col.tbl left_tables && List.mem a.Col.tbl right_tables
          then Some (b, a)
          else None
      | _ -> None)
    query.Spjg.where

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

let optimize_body ~(config : config) ?cache ?spans ?snap
    ?(fresh_only = false) (registry : Mv_core.Registry.t)
    (stats : Mv_catalog.Stats.t) (query : Spjg.t) : result =
  let schema = registry.Mv_core.Registry.schema in
  let obs = registry.Mv_core.Registry.obs in
  let octr name = Mv_obs.Registry.counter obs ("optimizer." ^ name) in
  (* Per-phase latency histograms (one sample per phase activity, wall
     seconds) — resolved once per optimize call, read back by the bench
     harness as p50/p90/p99 per phase. *)
  let phase name = Mv_obs.Registry.histogram obs ("optimizer.phase." ^ name) in
  let h_analyze = phase "analyze" in
  let h_match = phase "match" in
  let h_cost = phase "cost" in
  let spj = Block.spj_part query in
  let tables = Array.of_list spj.Spjg.tables in
  let n = Array.length tables in
  let edges = table_edges query in
  let memo : (int, entry) Hashtbl.t = Hashtbl.create 64 in
  let full = (1 lsl n) - 1 in
  let query_connected = n = 1 || connected edges (Array.to_list tables) in
  (* Per-optimization analysis memo, keyed by the (tables, where) core: the
     enumeration produces several blocks over the same core (the full-mask
     SPJ block, the whole query at the group-by stage, preaggregated inner
     blocks), and every derived analysis field depends on the block through
     that core alone — so each subexpression is analyzed exactly once and
     cheaply rebound to the other blocks (see {!A.rebind}). *)
  let analyses : (string list * Pred.t list, A.t) Hashtbl.t =
    Hashtbl.create 32
  in
  let analyze block =
    Mv_obs.Instrument.time_hist h_analyze (fun () ->
        Mv_obs.Instrument.incr (octr "analyze.calls");
        let key = (block.Spjg.tables, block.Spjg.where) in
        match Hashtbl.find_opt analyses key with
        | Some a ->
            Mv_obs.Instrument.incr (octr "analyze.memo_hits");
            if a.A.spjg == block then a else A.rebind a block
        | None ->
            Mv_obs.Span.wrap spans "analyze" (fun _ ->
                let a = A.analyze schema block in
                Hashtbl.add analyses key a;
                a))
  in
  (* the view-matching rule, through the match cache when serving; the
     pinned snapshot (if any) rides along into every rule invocation, so
     all subexpressions of this optimization see one registry state *)
  let find_subs ?spans qa =
    Mv_obs.Instrument.time_hist h_match (fun () ->
        match cache with
        | Some c -> Match_cache.find_substitutes ?spans ?snap c qa
        | None ->
            Mv_core.Registry.find_substitutes ?spans ?snap ~fresh_only
              registry qa)
  in
  (* Branch-and-bound accounting: pruned candidate names (for provenance)
     and the [opt.prune.cost_bound] counter, distinct from matcher
     rejects. *)
  let pruned_acc = ref [] in
  let prune_ctr = Mv_obs.Registry.counter obs "opt.prune.cost_bound" in
  (* invoke the view-matching rule on a block; returns leaf plans.
     [bound] is sampled once on entry (the best complete plan so far, if
     any) and handed to substitute costing as a branch-and-bound upper
     bound. *)
  let rule_leaves ?(bound = fun () -> None) block =
    Mv_obs.Instrument.incr (octr "subexpressions");
    Mv_obs.Span.wrap spans "rule"
      ~attrs:(fun () ->
        [ ("tables", Mv_obs.Span.Str (String.concat "," block.Spjg.tables)) ])
      (fun sub ->
        let subs = find_subs ?spans:sub (analyze block) in
        Mv_obs.Span.wrap sub "cost" (fun costs ->
            Mv_obs.Instrument.time_hist h_cost (fun () ->
                if config.produce_substitutes then
                  let b = if config.prune_cost_bound then bound () else None in
                  List.filter_map
                    (fun s ->
                      match view_leaf ?bound:b schema stats block s with
                      | Ok p -> Some p
                      | Error vname ->
                          Mv_obs.Instrument.incr prune_ctr;
                          pruned_acc := vname :: !pruned_acc;
                          Mv_obs.Span.note costs "prune.cost_bound" (fun () ->
                              [ ("view", Mv_obs.Span.Str vname) ]);
                          None)
                    subs
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
        Mv_obs.Instrument.add (octr "substitutes.considered")
          (List.length vleaves);
        if won then Mv_obs.Instrument.incr (octr "substitutes.wins");
        Mv_obs.Instrument.add (octr "substitutes.losses")
          (List.length vleaves - if won then 1 else 0)
  in
  for mask = 1 to full do
    let ts = tables_of_mask tables mask in
    let is_conn = connected edges ts || popcount mask = 1 in
    (* disconnected queries (no workload generates them, but users can
       write them) fall back to exhaustive enumeration with cartesian
       joins *)
    if is_conn || not query_connected then begin
      let block = Block.sub_block spj ts in
      let rows = Cost.block_rows stats block in
      let best = ref None in
      let consider p =
        best := Some (match !best with None -> p | Some q -> cheaper p q)
      in
      if popcount mask = 1 then consider (scan_leaf stats block)
      else begin
        (* join splits *)
        let sub = ref ((mask - 1) land mask) in
        while !sub > 0 do
          let a = !sub and b = mask land lnot !sub in
          if a < b then begin
            match (Hashtbl.find_opt memo a, Hashtbl.find_opt memo b) with
            | Some ea, Some eb ->
                let lt = tables_of_mask tables a
                and rt = tables_of_mask tables b in
                let keys = cross_keys spj lt rt in
                if keys <> [] || not is_conn then begin
                  let local = Block.local_preds spj ts in
                  let post =
                    List.filter
                      (fun p ->
                        (not (List.memq p (Block.local_preds spj lt)))
                        && (not (List.memq p (Block.local_preds spj rt)))
                        && not
                             (List.exists
                                (fun (x, y) ->
                                  Pred.equal p
                                    (Pred.Cmp (Pred.Eq, Expr.Col x, Expr.Col y))
                                  || Pred.equal p
                                       (Pred.Cmp
                                          (Pred.Eq, Expr.Col y, Expr.Col x)))
                                keys))
                      local
                  in
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
                         post;
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
        let vleaves =
          rule_leaves ~bound:(fun () -> Option.map Plan.est_cost !best) block
        in
        List.iter consider vleaves;
        score_substitutes vleaves !best
      end;
      match !best with
      | Some plan -> Hashtbl.replace memo mask { plan; rows; block }
      | None -> ()
    end
  done;
  Mv_obs.Instrument.add (octr "memo.groups") (Hashtbl.length memo);
  let spj_entry =
    match Hashtbl.find_opt memo full with
    | Some e -> e
    | None -> failwith "optimizer: no plan for the full table set"
  in
  match query.Spjg.group_by with
  | None ->
      let plan = spj_entry.plan in
      {
        plan;
        cost = Plan.est_cost plan;
        rows = Plan.est_rows plan;
        used_views = Plan.uses_view plan;
        pruned_views = List.rev !pruned_acc;
      }
  | Some gq ->
      let qa = analyze query in
      let agg_over input =
        let in_rows = Plan.est_rows input in
        let rows = Cost.group_rows stats ~input:in_rows gq in
        Plan.Aggregate
          {
            input;
            group_by = gq;
            out = query.Spjg.out;
            est_rows = rows;
            est_cost = Plan.est_cost input +. in_rows;
          }
      in
      let baseline = agg_over spj_entry.plan in
      let best = ref baseline in
      let agg_considered = ref 0 in
      let consider p = if Plan.est_cost p < Plan.est_cost !best then best := p in
      (* whole-query substitutes; the aggregate baseline bounds the search *)
      (let vleaves =
         rule_leaves ~bound:(fun () -> Some (Plan.est_cost !best)) query
       in
       agg_considered := !agg_considered + List.length vleaves;
       List.iter consider vleaves);
      (* preaggregated alternatives *)
      for mask = 1 to full - 1 do
        let ts = tables_of_mask tables mask in
        if connected edges ts || popcount mask = 1 then begin
          let remaining = tables_of_mask tables (full land lnot mask) in
          match Block.preagg_block query ts with
          | Some pa
            when safe_preagg qa schema remaining
                 && List.for_all
                      (function Expr.Col _ -> true | _ -> false)
                      (Option.value ~default:[]
                         pa.Block.block.Spjg.group_by) ->
              let inner_rows = Cost.block_rows stats pa.Block.block in
              let inner_scan =
                let base =
                  List.fold_left
                    (fun acc t ->
                      acc
                      +. float_of_int
                           (max 1 (Mv_catalog.Stats.row_count stats t)))
                    0.0 ts
                in
                Plan.Leaf
                  {
                    source = Plan.Computed pa.Block.block;
                    binds = leaf_binds pa.Block.block;
                    est_rows = inner_rows;
                    est_cost = base +. inner_rows;
                  }
              in
              (* a preaggregated leaf only grows through joins and the
                 outer aggregation, so the current best's full cost is a
                 valid bound on the leaf alone *)
              let inner_views =
                rule_leaves
                  ~bound:(fun () -> Some (Plan.est_cost !best))
                  pa.Block.block
              in
              agg_considered := !agg_considered + List.length inner_views;
              List.iter
                (fun inner ->
                  (* join the preaggregated result with the remaining
                     tables, greedily *)
                  let rec attach plan joined = function
                    | [] -> Some plan
                    | rest ->
                        let avail = ts @ joined in
                        let next =
                          List.find_opt
                            (fun r -> cross_keys query avail [ r ] <> [])
                            rest
                        in
                        let next =
                          match next with
                          | Some r -> Some r
                          | None -> (
                              match rest with [] -> None | r :: _ -> Some r)
                        in
                        (match next with
                        | None -> None
                        | Some r ->
                            let avail_after = r :: avail in
                            let keys = cross_keys query avail [ r ] in
                            let rblock = Block.sub_block spj [ r ] in
                            let rplan = scan_leaf stats rblock in
                            (* non-equality conjuncts that become fully
                               bound once r joins (and were not already
                               applied below) *)
                            let post =
                              List.filter
                                (fun p ->
                                  let cols = Pred.columns p in
                                  List.exists
                                    (fun (c : Col.t) -> c.Col.tbl = r)
                                    cols
                                  && List.exists
                                       (fun (c : Col.t) -> c.Col.tbl <> r)
                                       cols
                                  && List.for_all
                                       (fun (c : Col.t) ->
                                         List.mem c.Col.tbl avail_after)
                                       cols
                                  && not
                                       (List.exists
                                          (fun (x, y) ->
                                            Pred.equal p
                                              (Pred.Cmp
                                                 (Pred.Eq, Expr.Col x, Expr.Col y))
                                            || Pred.equal p
                                                 (Pred.Cmp
                                                    (Pred.Eq, Expr.Col y,
                                                     Expr.Col x)))
                                          keys))
                                query.Spjg.where
                            in
                            (* remaining tables join on unique keys, so the
                               result cardinality stays at the inner side's *)
                            let rows = Plan.est_rows plan in
                            let j =
                              Plan.Join
                                {
                                  left = plan;
                                  right = rplan;
                                  keys;
                                  post;
                                  est_rows = rows;
                                  est_cost =
                                    Plan.est_cost plan +. Plan.est_cost rplan
                                    +. Plan.est_rows plan
                                    +. Plan.est_rows rplan +. rows;
                                }
                            in
                            attach j (r :: joined)
                              (List.filter (( <> ) r) rest))
                  in
                  match attach inner [] remaining with
                  | None -> ()
                  | Some joined_plan ->
                      (* outer aggregation rewritten over the
                         preaggregated bindings *)
                      let cnt = Expr.Col (Col.make "#agg" "cnt") in
                      let outer_out =
                        List.map
                          (fun (o : Spjg.out_item) ->
                            match o.Spjg.def with
                            | Spjg.Scalar e -> Spjg.scalar o.Spjg.name e
                            | Spjg.Aggregate Spjg.Count_star ->
                                Spjg.aggregate o.Spjg.name (Spjg.Sum0 cnt)
                            | Spjg.Aggregate (Spjg.Sum _) ->
                                Spjg.aggregate o.Spjg.name
                                  (Spjg.Sum
                                     (Expr.Col
                                        (Col.make "#agg" ("s_" ^ o.Spjg.name))))
                            | Spjg.Aggregate (Spjg.Avg _) ->
                                Spjg.aggregate o.Spjg.name
                                  (Spjg.Sum_div_sum
                                     ( Expr.Col
                                         (Col.make "#agg" ("s_" ^ o.Spjg.name)),
                                       cnt ))
                            | Spjg.Aggregate (Spjg.Sum_div_sum _ | Spjg.Sum0 _)
                              ->
                                (* never present in user queries *)
                                assert false)
                          query.Spjg.out
                      in
                      let in_rows = Plan.est_rows joined_plan in
                      let rows = Cost.group_rows stats ~input:in_rows gq in
                      consider
                        (Plan.Aggregate
                           {
                             input = joined_plan;
                             group_by = gq;
                             out = outer_out;
                             est_rows = rows;
                             est_cost = Plan.est_cost joined_plan +. in_rows;
                           }))
                (inner_scan :: inner_views)
          | _ -> ()
        end
      done;
      let plan = !best in
      (* aggregation-stage scoring: did any alternative derived from a
         substitute (whole-query or preaggregated) beat the agg-over-SPJ
         baseline? *)
      if !agg_considered > 0 then begin
        let won = plan != baseline && Plan.uses_view plan in
        Mv_obs.Instrument.add (octr "substitutes.considered") !agg_considered;
        if won then Mv_obs.Instrument.incr (octr "substitutes.wins");
        Mv_obs.Instrument.add (octr "substitutes.losses")
          (!agg_considered - if won then 1 else 0)
      end;
      {
        plan;
        cost = Plan.est_cost plan;
        rows = Plan.est_rows plan;
        used_views = Plan.uses_view plan;
        pruned_views = List.rev !pruned_acc;
      }

let optimize ?(config = default_config) ?cache ?spans ?snap
    ?(fresh_only = false) (registry : Mv_core.Registry.t)
    (stats : Mv_catalog.Stats.t) (query : Spjg.t) : result =
  (match cache with
  | Some c when Match_cache.registry c != registry ->
      invalid_arg "Optimizer.optimize: cache belongs to another registry"
  | _ -> ());
  (* cached candidates/plans were computed without the freshness gate (a
     staleness mark does not bump the registry epoch), so the fresh-only
     mode bypasses the cache entirely rather than risk serving a plan
     built over a view that has since gone stale *)
  let cache = if fresh_only then None else cache in
  let obs = registry.Mv_core.Registry.obs in
  let r =
    Mv_obs.Instrument.time
      (Mv_obs.Registry.timer obs "optimizer.time")
      (fun () ->
        Mv_obs.Instrument.time_hist
          (Mv_obs.Registry.histogram obs "optimizer.phase.total")
          (fun () ->
            Mv_obs.Span.wrap spans "optimize"
              ~attrs:(fun () ->
                [
                  ( "tables",
                    Mv_obs.Span.Str (String.concat "," query.Spjg.tables) );
                  ("aggregate", Mv_obs.Span.Bool (query.Spjg.group_by <> None));
                ])
              (fun spans ->
                let r =
                  match cache with
                  | None ->
                      optimize_body ~config ?spans ?snap ~fresh_only registry
                        stats query
                  | Some c ->
                      (* plan layer: a warm hit skips enumeration and
                         matching entirely; a miss runs the normal
                         exploration with the rule routed through the match
                         layer. A pinned snapshot also pins the plan
                         layer's validation epoch. Prune provenance is not
                         cached: warm hits report none. *)
                      let pruned = ref [] in
                      let e =
                        Match_cache.with_plan ?spans
                          ?epoch:
                            (Option.map
                               (fun s -> s.Mv_core.Registry.snap_epoch)
                               snap)
                          c query
                          (fun () ->
                            let r =
                              optimize_body ~config ~cache:c ?spans ?snap
                                registry stats query
                            in
                            pruned := r.pruned_views;
                            {
                              Match_cache.plan = r.plan;
                              cost = r.cost;
                              rows = r.rows;
                              used_views = r.used_views;
                            })
                      in
                      {
                        plan = e.Match_cache.plan;
                        cost = e.Match_cache.cost;
                        rows = e.Match_cache.rows;
                        used_views = e.Match_cache.used_views;
                        pruned_views = !pruned;
                      }
                in
                Mv_obs.Span.annotate spans (fun () ->
                    [
                      ("cost", Mv_obs.Span.Float r.cost);
                      ("used_views", Mv_obs.Span.Bool r.used_views);
                    ]);
                r)))
  in
  Mv_obs.Instrument.incr (Mv_obs.Registry.counter obs "optimizer.calls");
  (* ledger attribution (DESIGN.md §14): every call logs the query it
     optimized; a winning plan credits each view leaf with "chosen" plus
     the estimated cost saved against computing the query directly. This
     counts every final plan, warm plan-cache hits included — serving-side
     plan-layer peeks are attributed separately as cache hits. *)
  let health = registry.Mv_core.Registry.health in
  Mv_core.Health.record_query health query;
  if r.used_views then begin
    Mv_obs.Instrument.incr
      (Mv_obs.Registry.counter obs "optimizer.plans.using_views");
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
