(** Direct execution of SPJG blocks with SQL bag semantics.

    The executor joins tables greedily along column-equality predicates
    (hash join when an equijoin key is available, filtered nested loop
    otherwise), applies each conjunct as soon as all its columns are bound,
    then groups and projects. It is deliberately simple: it exists to give
    ground truth for the matching algorithm's rewrites and to run the
    examples, not to be fast.

    With [~adaptive:true] (and optionally [~stats]) it additionally picks
    the join order by estimated intermediate cardinality and a per-join
    strategy — indexed or plain nested loop below a cardinality threshold,
    hash join above — recording strategy counts and estimation error on the
    global registry. All strategies produce the same bag. *)

open Mv_base
module Spjg = Mv_relalg.Spjg
module Stats = Mv_catalog.Stats

type bindings = Value.t Col.Map.t

(* Per-operator-kind row counters ([exec.rows.<kind>]). They live on the
   process-wide [Mv_obs.Registry.global]: execution has no per-query
   context object to scope them to, and the executor exists for ground
   truth, not for concurrent serving. *)
let count_rows kind n =
  Mv_obs.Instrument.add
    (Mv_obs.Registry.counter Mv_obs.Registry.global ("exec.rows." ^ kind))
    n

(* Strategy pick counters ([exec.join.strategy.hash|nlj|inlj]) and the
   per-join q-error histogram (max(est/actual, actual/est); only recorded
   when both sides are positive). Shared names with Plan_exec so bench
   snapshots aggregate both executors. *)
let count_strategy kind =
  Mv_obs.Instrument.incr
    (Mv_obs.Registry.counter Mv_obs.Registry.global
       ("exec.join.strategy." ^ kind))

let qerror_hist =
  lazy
    (Mv_obs.Registry.histogram Mv_obs.Registry.global "exec.estimation.qerror")

let observe_qerror ~est ~actual =
  if est > 0.0 && actual > 0 then
    let a = float_of_int actual in
    Mv_obs.Instrument.observe (Lazy.force qerror_hist)
      (Float.max (est /. a) (a /. est))

(* Below this many build-side rows a nested loop beats paying hash-table
   construction; also the probe-count bound for preferring an index
   lookup. *)
let nlj_threshold = 64
let nlj_budget = 16 * nlj_threshold

let env_of (b : bindings) (c : Col.t) =
  match Col.Map.find_opt c b with
  | Some v -> v
  | None ->
      raise
        (Eval.Eval_error ("unbound column " ^ Col.to_string c))

(* Bindings for one row of one table. *)
let bind_row (tbl : Table.t) (row : Value.t array) : bindings =
  let tname = Table.name tbl in
  List.fold_left
    (fun (i, acc) (c : Mv_catalog.Column.t) ->
      (i + 1, Col.Map.add (Col.make tname c.Mv_catalog.Column.name) row.(i) acc))
    (0, Col.Map.empty)
    tbl.Table.def.Mv_catalog.Table_def.columns
  |> snd

(* A conjunct is applicable once every column it references is bound. *)
let applicable bound_tables p =
  List.for_all (fun (c : Col.t) -> List.mem c.Col.tbl bound_tables)
    (Pred.columns p)

let apply_preds preds (rows : bindings list) =
  if preds = [] then rows
  else begin
    let kept =
      List.filter
        (fun b -> List.for_all (Eval.pred_holds (env_of b)) preds)
        rows
    in
    count_rows "filter" (List.length kept);
    kept
  end

(* Equijoin keys between the next table and the already-bound tables. *)
let join_keys conjuncts ~bound ~next =
  List.filter_map
    (fun p ->
      match p with
      | Pred.Cmp (Pred.Eq, Expr.Col a, Expr.Col b) ->
          if a.Col.tbl = next && List.mem b.Col.tbl bound then Some (a, b)
          else if b.Col.tbl = next && List.mem a.Col.tbl bound then
            Some (b, a)
          else None
      | _ -> None)
    conjuncts

(* ---- cardinality estimation (adaptive mode) --------------------------- *)

(* A deliberately coarse mirror of [Mv_opt.Cost]'s single-table selectivity
   (the engine cannot depend on the optimizer): histograms/MCVs through
   [Stats.range_selectivity], 1/max-ndv for same-table column equality,
   fixed guesses for the rest. Only used to pick join orders. *)
let est_local_rows stats conjuncts tname =
  let local =
    List.filter
      (fun p ->
        let cols = Pred.columns p in
        cols <> []
        && List.for_all (fun (c : Col.t) -> c.Col.tbl = tname) cols)
      conjuncts
  in
  let sel =
    List.fold_left
      (fun acc p ->
        acc
        *.
        match Mv_relalg.Classify.classify_one p with
        | `Range (c, op, v) -> Stats.range_selectivity stats c op v
        | `Col_eq (a, b) ->
            1.0 /. float_of_int (max (Stats.ndv stats a) (Stats.ndv stats b))
        | `Disj_range (_, ivs) ->
            Float.min 1.0 (0.33 *. float_of_int (List.length ivs))
        | `Residual _ -> 0.25)
      1.0 local
  in
  Float.max 1.0 (float_of_int (Stats.row_count stats tname) *. sel)

(* Selectivity of the equijoin between [next] and the bound set: containment
   assumption, one term per key. 1.0 when unconnected (cross product). *)
let join_selectivity stats conjuncts ~bound ~next =
  List.fold_left
    (fun acc (tc, oc) ->
      acc /. float_of_int (max (Stats.ndv stats tc) (Stats.ndv stats oc)))
    1.0
    (join_keys conjuncts ~bound ~next)

let table_connected conjuncts bound t =
  List.exists
    (fun p ->
      match p with
      | Pred.Cmp (Pred.Eq, Expr.Col a, Expr.Col b) ->
          (a.Col.tbl = t && List.mem b.Col.tbl bound)
          || (b.Col.tbl = t && List.mem a.Col.tbl bound)
      | _ -> false)
    conjuncts

(* Greedy order by estimated intermediate cardinality: start at the table
   with the fewest estimated post-filter rows, then repeatedly take the
   connected table minimizing the estimated result of the next join
   (falling back to any table when nothing connects). Returns the order and
   the running estimate after each step. *)
let order_tables_est stats conjuncts tables =
  match tables with
  | [] | [ _ ] ->
      (* nothing to order and no join to instrument: skip estimation *)
      (tables, [])
  | _ ->
      let base = List.map (fun t -> (t, est_local_rows stats conjuncts t)) tables in
      let argmin f = function
        | [] -> invalid_arg "argmin"
        | x :: xs ->
            List.fold_left (fun b y -> if f y < f b then y else b) x xs
      in
      let rec go bound cur remaining order ests =
        match remaining with
        | [] -> (List.rev order, List.rev ests)
        | _ ->
            let connected =
              List.filter (fun (t, _) -> table_connected conjuncts bound t)
                remaining
            in
            let pool =
              if bound = [] || connected = [] then remaining else connected
            in
            let score (t, b) =
              if bound = [] then b
              else cur *. b *. join_selectivity stats conjuncts ~bound ~next:t
            in
            let ((t, _) as pick) = argmin score pool in
            let cur' = score pick in
            go (t :: bound)
              (Float.max 1.0 cur')
              (List.filter (fun (u, _) -> u <> t) remaining)
              (t :: order) (cur' :: ests)
      in
      go [] 1.0 base [] []

(* Candidate rows of [tname], narrowed through a declared index when one
   matches the table-local predicates: equality on an index prefix, or a
   range on the leading index column. All local predicates are re-applied
   by the caller, so the index only has to return a superset filtered by
   the conditions it used. *)
let table_source db conjuncts tname : Value.t array list =
  let tbl = Database.table_exn db tname in
  let local =
    List.filter
      (fun p ->
        let cols = Pred.columns p in
        cols <> []
        && List.for_all (fun (c : Col.t) -> c.Col.tbl = tname) cols)
      conjuncts
  in
  let classified = Mv_relalg.Classify.classify local in
  let eq_cols, range_cols =
    List.fold_left
      (fun (eqs, rngs) (c, op, _) ->
        match op with
        | Pred.Eq -> (c.Col.col :: eqs, rngs)
        | _ -> (eqs, c.Col.col :: rngs))
      ([], [])
      classified.Mv_relalg.Classify.ranges
  in
  let eq_value col =
    List.find_map
      (fun (c, op, v) ->
        if c.Col.col = col && op = Pred.Eq then Some v else None)
      classified.Mv_relalg.Classify.ranges
  in
  let interval_of col =
    List.fold_left
      (fun acc (c, op, v) ->
        if c.Col.col = col && op <> Pred.Eq then
          Mv_relalg.Interval.intersect acc (Mv_relalg.Interval.of_cmp op v)
        else acc)
      Mv_relalg.Interval.full
      classified.Mv_relalg.Classify.ranges
  in
  let try_index cols =
    match Database.index db ~table:tname ~cols with
    | None -> None
    | Some ix -> (
        match Index.usable_for ix ~eq_cols ~range_cols with
        | Some (`Prefix n) ->
            let key =
              List.filteri (fun i _ -> i < n) cols
              |> List.map (fun c -> Option.get (eq_value c))
            in
            Some (Index.prefix_lookup ix key)
        | Some `Range ->
            Some (Index.range_scan ix (interval_of (List.hd cols)))
        | None -> None)
  in
  let best =
    List.find_map try_index (Database.declared_indexes db tname)
  in
  let rows = match best with Some rows -> rows | None -> tbl.Table.rows in
  count_rows "scan" (List.length rows);
  rows

(* Join [tbl] into the current tuples. In adaptive mode the strategy is
   picked from the {e actual} cardinalities at hand: an index lookup when a
   declared index leads with a join key and the probe side is small, a
   nested loop when the comparison budget [n_src * n_probe] is within
   [nlj_budget], a hash join otherwise. Every strategy compares full key
   tuples exactly ([Value.Key]; NULLs never join), so they produce
   identical bags. *)
let join_table ?(adaptive = false) db conjuncts ~bound (tuples : bindings list)
    tname : string list * bindings list =
  let tbl = Database.table_exn db tname in
  let source_rows = table_source db conjuncts tname in
  let keys = join_keys conjuncts ~bound ~next:tname in
  let bound' = tname :: bound in
  let merge tup b = Col.Map.union (fun _ x _ -> Some x) tup b in
  let build_cols = Array.of_list (List.map fst keys) in
  let probe_cols = Array.of_list (List.map snd keys) in
  let build_key b = Array.map (fun tc -> Col.Map.find tc b) build_cols in
  let probe_key tup = Array.map (fun oc -> Col.Map.find oc tup) probe_cols in
  let has_null = Array.exists Value.is_null in
  let hash_join () =
    (* build on the new table, probe with current tuples *)
    let build = Value.Key.create 256 in
    List.iter
      (fun row ->
        let b = bind_row tbl row in
        let kv = build_key b in
        if not (has_null kv) then Value.Key.add build kv b)
      source_rows;
    List.concat_map
      (fun tup ->
        let kv = probe_key tup in
        if has_null kv then []
        else List.map (merge tup) (Value.Key.find_all build kv))
      tuples
  in
  let nested_loop () =
    count_strategy "nlj";
    let srcs =
      List.filter_map
        (fun row ->
          let b = bind_row tbl row in
          let kv = build_key b in
          if has_null kv then None else Some (kv, b))
        source_rows
    in
    List.concat_map
      (fun tup ->
        let k = probe_key tup in
        if has_null k then []
        else
          List.filter_map
            (fun (bk, b) ->
              if Array.for_all2 Value.equal bk k then Some (merge tup b)
              else None)
            srcs)
      tuples
  in
  (* Index nested loop through a declared index whose leading column is a
     join key. The index serves the full table, possibly wider than the
     narrowed [source_rows] — harmless, since the caller re-applies every
     local predicate once the table is bound. *)
  let indexed_loop ix oc0 =
    count_strategy "inlj";
    List.concat_map
      (fun tup ->
        let k = probe_key tup in
        if has_null k then []
        else
          List.filter_map
            (fun row ->
              let b = bind_row tbl row in
              let bk = build_key b in
              if (not (has_null bk)) && Array.for_all2 Value.equal bk k then
                Some (merge tup b)
              else None)
            (Index.prefix_lookup ix [ Col.Map.find oc0 tup ]))
      tuples
  in
  let join_index () =
    List.find_map
      (fun cols ->
        match cols with
        | lead :: _ -> (
            match
              List.find_opt (fun ((tc : Col.t), _) -> tc.Col.col = lead) keys
            with
            | Some (_, oc) -> (
                match Database.index db ~table:tname ~cols with
                | Some ix -> Some (ix, oc)
                | None -> None)
            | None -> None)
        | [] -> None)
      (Database.declared_indexes db tname)
  in
  let joined =
    if keys <> [] && tuples <> [] then
      if not adaptive then hash_join ()
      else
        let n_src = List.length source_rows in
        let n_probe = List.length tuples in
        match join_index () with
        | Some (ix, oc0) when n_probe <= nlj_threshold && n_src > nlj_threshold
          ->
            indexed_loop ix oc0
        | _ ->
            (* a nested loop does [n_src * n_probe] key comparisons; a hash
               join does [n_src + n_probe] hashtable operations — the loop
               only wins when the comparison budget is small *)
            if n_src * n_probe <= nlj_budget || n_probe <= 2 then
              nested_loop ()
            else begin
              count_strategy "hash";
              hash_join ()
            end
    else
      (* cross product (filtered immediately below) *)
      List.concat_map
        (fun tup -> List.map (fun row -> merge tup (bind_row tbl row)) source_rows)
        tuples
  in
  count_rows "join" (List.length joined);
  (bound', joined)

(* Greedy join order: start anywhere, prefer tables connected to the bound
   set by a column-equality predicate. *)
let order_tables conjuncts tables =
  let rec go bound remaining acc =
    match remaining with
    | [] -> List.rev acc
    | _ ->
        let next =
          match List.find_opt (table_connected conjuncts bound) remaining with
          | Some t -> t
          | None -> List.hd remaining
        in
        go (next :: bound) (List.filter (( <> ) next) remaining) (next :: acc)
  in
  go [] tables []

(* The SPJ part: the bag of fully-joined, fully-filtered tuples. *)
let spj_tuples ?(adaptive = false) ?stats db (block : Spjg.t) : bindings list =
  let conjuncts = block.Spjg.where in
  let order, ests =
    match (adaptive, stats) with
    | true, Some st -> order_tables_est st conjuncts block.Spjg.tables
    | _ -> (order_tables conjuncts block.Spjg.tables, [])
  in
  let rec go i bound applied tuples = function
    | [] ->
        (* any conjunct never applied (e.g. constant-only) runs here *)
        let rest = List.filter (fun p -> not (List.memq p applied)) conjuncts in
        apply_preds rest tuples
    | t :: rest ->
        let bound', tuples' =
          join_table ~adaptive db conjuncts ~bound tuples t
        in
        let ready =
          List.filter
            (fun p -> (not (List.memq p applied)) && applicable bound' p)
            conjuncts
        in
        let filtered = apply_preds ready tuples' in
        (* estimation-error instrument: running estimate vs. the actual
           intermediate result, per join (the first table is a scan) *)
        (if i > 0 then
           match List.nth_opt ests i with
           | Some est -> observe_qerror ~est ~actual:(List.length filtered)
           | None -> ());
        go (i + 1) bound' (ready @ applied) filtered rest
  in
  go 0 [] [] [ Col.Map.empty ] order

(* ---- aggregation ---- *)

let add_value a b =
  match (a, b) with
  | Value.Null, v | v, Value.Null -> v
  | Value.Int x, Value.Int y -> Value.Int (x + y)
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) -> (
      match (Value.as_float a, Value.as_float b) with
      | Some x, Some y -> Value.Float (x +. y)
      | _ -> assert false)
  | _ -> raise (Eval.Eval_error "sum of non-numeric values")

(* Aggregate evaluation per output item over the rows of one group. *)
let eval_agg (rows : bindings list) (a : Spjg.agg) : Value.t =
  let sum_of e =
    List.fold_left
      (fun acc b ->
        match Eval.expr (env_of b) e with
        | Value.Null -> acc
        | v -> add_value acc v)
      Value.Null rows
  in
  match a with
  | Spjg.Count_star -> Value.Int (List.length rows)
  | Spjg.Sum e -> sum_of e
  | Spjg.Sum0 e -> (
      match sum_of e with Value.Null -> Value.Int 0 | v -> v)
  | Spjg.Avg e ->
      let non_null =
        List.filter
          (fun b -> not (Value.is_null (Eval.expr (env_of b) e)))
          rows
      in
      if non_null = [] then Value.Null
      else Eval.arith Expr.Div (sum_of e) (Value.Int (List.length non_null))
  | Spjg.Sum_div_sum (num, den) -> Eval.arith Expr.Div (sum_of num) (sum_of den)

let group_key gexprs (b : bindings) =
  Array.of_list (List.map (fun g -> Eval.expr (env_of b) g) gexprs)

let execute ?adaptive ?stats db (block : Spjg.t) : Relation.t =
  let tuples = spj_tuples ?adaptive ?stats db block in
  let cols = Spjg.out_names block in
  let finish (rel : Relation.t) =
    count_rows "output" (List.length rel.Relation.rows);
    rel
  in
  match block.Spjg.group_by with
  | None ->
      let rows =
        List.map
          (fun b ->
            Array.of_list
              (List.map
                 (fun (o : Spjg.out_item) ->
                   match o.Spjg.def with
                   | Spjg.Scalar e -> Eval.expr (env_of b) e
                   | Spjg.Aggregate _ -> assert false)
                 block.Spjg.out))
          tuples
      in
      finish { Relation.cols; rows }
  | Some gexprs ->
      let groups = Value.Key.create 64 in
      let order = ref [] in
      List.iter
        (fun b ->
          let k = group_key gexprs b in
          match Value.Key.find_opt groups k with
          | Some rows -> Value.Key.replace groups k (b :: rows)
          | None ->
              order := k :: !order;
              Value.Key.add groups k [ b ])
        tuples;
      (* SQL: zero input rows with an empty grouping list yields one row
         (count = 0, sums NULL); with a non-empty grouping list it yields
         none. *)
      let keys =
        if tuples = [] && gexprs = [] then [ `Empty ]
        else List.rev_map (fun k -> `Group k) !order
      in
      let rows =
        List.map
          (fun key ->
            let group_rows =
              match key with
              | `Empty -> []
              | `Group k -> Value.Key.find groups k
            in
            let witness =
              match group_rows with b :: _ -> Some b | [] -> None
            in
            Array.of_list
              (List.map
                 (fun (o : Spjg.out_item) ->
                   match (o.Spjg.def, witness) with
                   | Spjg.Scalar e, Some b -> Eval.expr (env_of b) e
                   | Spjg.Scalar _, None -> Value.Null
                   | Spjg.Aggregate a, _ -> eval_agg group_rows a)
                 block.Spjg.out))
          keys
      in
      count_rows "group" (List.length rows);
      finish { Relation.cols; rows }

(* Materialize a view's contents as a table registered in the database. *)
let materialize db (view : Mv_core.View.t) : Table.t =
  let rel = execute db (Mv_core.View.spjg view) in
  let def = Mv_core.View.as_table_def db.Database.schema view in
  let tbl = Table.of_rows def rel.Relation.rows in
  Database.add_table db tbl;
  view.Mv_core.View.row_count <- List.length rel.Relation.rows;
  Mv_core.View.mark_fresh
    ~epochs:
      (List.map
         (fun tn -> (tn, Database.table_epoch db tn))
         (Mv_util.Sset.elements view.Mv_core.View.source_tables))
    view;
  List.iter
    (fun cols ->
      Database.declare_index db ~table:view.Mv_core.View.name ~cols)
    view.Mv_core.View.indexes;
  tbl

(* Materialize and return the statistics extended with an entry for the
   view's actual contents, so estimate_view_rows and the optimizer's
   substitute costing see measured numbers instead of the analytic
   estimate (ROADMAP item 4: view-level statistics for unmaintained
   views; maintained ones go through Ivm.refresh_stats). *)
let materialize_stats ?buckets db (view : Mv_core.View.t) stats :
    Table.t * Mv_catalog.Stats.t =
  let tbl = materialize db view in
  let ts = Database.table_stats ?buckets db view.Mv_core.View.name in
  (tbl, (view.Mv_core.View.name, ts) :: stats)

(* Execute a substitute: its block references the view's materialized
   table, which must exist in [db] (see [materialize]). *)
let execute_substitute ?adaptive ?stats db (s : Mv_core.Substitute.t) :
    Relation.t =
  execute ?adaptive ?stats db s.Mv_core.Substitute.block

(* UNION ALL of a union substitute's parts (all views materialized). *)
let execute_union ?adaptive ?stats db (u : Mv_core.Union_substitute.t) :
    Relation.t =
  match u.Mv_core.Union_substitute.parts with
  | [] -> invalid_arg "Exec.execute_union: empty union"
  | first :: rest ->
      let r0 = execute_substitute ?adaptive ?stats db first in
      List.fold_left
        (fun (acc : Relation.t) part ->
          let r = execute_substitute ?adaptive ?stats db part in
          { acc with Relation.rows = acc.Relation.rows @ r.Relation.rows })
        r0 rest
