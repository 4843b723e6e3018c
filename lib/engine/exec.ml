(** Direct execution of SPJG blocks with SQL bag semantics: the one join
    pipeline behind direct execution, plan execution, materialization and
    incremental maintenance.

    A block compiles once per execution (once per view for IVM delta
    terms) into a slot layout: one slot per column it references, table by
    table in FROM order and column by column in definition order, so the
    layout does not depend on the join order picked at run time. Tuples
    are [Value.t array]s in that layout; conjuncts, outputs, grouping keys
    and aggregates are closures over slots ([Mv_base.Eval.compile_*]).

    The executor orders the join (by estimated intermediate cardinality
    when statistics are given, by connectivity otherwise), joins each
    table through a declared index when the probe side is small and by a
    hash join keyed on the stored rows' column positions otherwise, copies
    a stored row's referenced columns into a tuple only when it matches,
    applies each conjunct as soon as all its columns are bound, then
    groups and projects. Strategy picks and estimation error are recorded
    on the global registry. *)

open Mv_base
module Spjg = Mv_relalg.Spjg
module Stats = Mv_catalog.Stats

(* Row counters per operator kind ([exec.rows.<kind>]), join strategy
   counters ([exec.join.strategy.hash|inlj]) and the per-join q-error
   histogram (max(est/actual, actual/est), recorded only when both sides
   are positive). They live on the process-wide [Mv_obs.Registry.global]:
   execution has no per-query context object to scope them to. Each
   handle is resolved on first use and bumped without a lookup after. *)
let counter =
  Mv_obs.Registry.resolver Mv_obs.Registry.counter Mv_obs.Registry.global

let rows_scan = counter "exec.rows.scan"
let rows_join = counter "exec.rows.join"
let rows_filter = counter "exec.rows.filter"
let rows_group = counter "exec.rows.group"
let rows_output = counter "exec.rows.output"
let strategy_hash = counter "exec.join.strategy.hash"
let strategy_inlj = counter "exec.join.strategy.inlj"
let count c n = Mv_obs.Instrument.add (c ()) n

let qerror_hist =
  Mv_obs.Registry.resolver Mv_obs.Registry.histogram Mv_obs.Registry.global
    "exec.estimation.qerror"

let observe_qerror ~est ~actual =
  if est > 0.0 && actual > 0 then
    let a = float_of_int actual in
    Mv_obs.Instrument.observe (qerror_hist ()) (Float.max (est /. a) (a /. est))

(* The probe-side bound for preferring an index lookup over a hash join
   (and the build-side size above which the lookup pays). *)
let nlj_threshold = 64

type tuple = Value.t array

let unbound c = raise (Eval.Eval_error ("unbound column " ^ Col.to_string c))
let has_null = Array.exists Value.is_null

(* ---- compiled blocks --------------------------------------------------- *)

(* One FROM table: the stored positions of the columns the block
   references, ascending, copied to the slots from [off] on. *)
type source = {
  name : string;
  pos : int array;
  off : int;
  local : Pred.t list;  (** conjuncts over this table alone *)
  ranges : (Col.t * Pred.cmp * Value.t) list;  (** [local]'s column ranges *)
}

type conj = { tables : string list; holds : tuple -> bool }

(* An equality of two resolved columns: a join key once one side's table
   is bound and the other's is next. *)
type equi = {
  a : Col.t;
  a_pos : int;
  a_slot : int;
  b : Col.t;
  b_pos : int;
  b_slot : int;
}

type item = Scalar of (tuple -> Value.t) | Agg of (tuple list -> Value.t)

type block = {
  spjg : Spjg.t;
  width : int;
  slots : int Col.Map.t;
  sources : source list;  (** FROM order *)
  conjs : conj list;  (** WHERE order *)
  equis : equi list;
  edges : (string * string) list;  (** tables an equality of columns joins *)
  group : (tuple -> Value.t) array option;
  items : item array;
}

let add_value a b =
  match (a, b) with
  | Value.Null, v | v, Value.Null -> v
  | Value.Int x, Value.Int y -> Value.Int (x + y)
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) -> (
      match (Value.as_float a, Value.as_float b) with
      | Some x, Some y -> Value.Float (x +. y)
      | _ -> assert false)
  | _ -> raise (Eval.Eval_error "sum of non-numeric values")

(* An aggregate over the tuples of one group (newest first), NULLs
   skipped. *)
let compile_agg slot : Spjg.agg -> tuple list -> Value.t =
  let sum_of f rows =
    List.fold_left
      (fun acc t -> match f t with Value.Null -> acc | v -> add_value acc v)
      Value.Null rows
  in
  function
  | Spjg.Count_star -> fun rows -> Value.Int (List.length rows)
  | Spjg.Sum e ->
      let f = Eval.compile_expr slot e in
      sum_of f
  | Spjg.Sum0 e -> (
      let f = Eval.compile_expr slot e in
      fun rows -> match sum_of f rows with Value.Null -> Value.Int 0 | v -> v)
  | Spjg.Avg e ->
      let f = Eval.compile_expr slot e in
      fun rows ->
        let n =
          List.fold_left
            (fun n t -> if Value.is_null (f t) then n else n + 1)
            0 rows
        in
        if n = 0 then Value.Null
        else Eval.arith Expr.Div (sum_of f rows) (Value.Int n)
  | Spjg.Sum_div_sum (num, den) ->
      let fn = Eval.compile_expr slot num and fd = Eval.compile_expr slot den in
      fun rows -> Eval.arith Expr.Div (sum_of fn rows) (sum_of fd rows)

let compile_item slot (o : Spjg.out_item) =
  match o.Spjg.def with
  | Spjg.Scalar e -> Scalar (Eval.compile_expr slot e)
  | Spjg.Aggregate a -> Agg (compile_agg slot a)

let compile db (sp : Spjg.t) : block =
  let refs = Spjg.referenced_columns sp in
  (* a table's referenced columns with their stored positions *)
  let referenced name =
    (Table.def_of (Database.table_exn db name)).Mv_catalog.Table_def.columns
    |> List.mapi (fun i (c : Mv_catalog.Column.t) ->
           (Col.make name c.Mv_catalog.Column.name, i))
    |> List.filter (fun (col, _) -> Col.Set.mem col refs)
  in
  let placed, sources, width =
    List.fold_left
      (fun (placed, sources, off) name ->
        let cols = referenced name in
        let placed =
          List.fold_left
            (fun (m, slot) (col, pos) -> (Col.Map.add col (slot, pos) m, slot + 1))
            (placed, off) cols
          |> fst
        in
        let local =
          List.filter
            (fun p ->
              let cols = Pred.columns p in
              cols <> [] && List.for_all (fun (c : Col.t) -> c.Col.tbl = name) cols)
            sp.Spjg.where
        in
        let s =
          {
            name;
            pos = Array.of_list (List.map snd cols);
            off;
            local;
            ranges = (Mv_relalg.Classify.classify local).Mv_relalg.Classify.ranges;
          }
        in
        (placed, s :: sources, off + List.length cols))
      (Col.Map.empty, [], 0) sp.Spjg.tables
  in
  let slots = Col.Map.map fst placed in
  let slot c = Col.Map.find_opt c slots in
  let col_eqs =
    List.filter_map
      (function
        | Pred.Cmp (Pred.Eq, Expr.Col a, Expr.Col b) -> Some (a, b) | _ -> None)
      sp.Spjg.where
  in
  {
    spjg = sp;
    width;
    slots;
    sources = List.rev sources;
    conjs =
      List.map
        (fun p ->
          {
            tables =
              List.sort_uniq String.compare
                (List.map (fun (c : Col.t) -> c.Col.tbl) (Pred.columns p));
            holds = Eval.compile_holds slot p;
          })
        sp.Spjg.where;
    equis =
      List.filter_map
        (fun (a, b) ->
          match (Col.Map.find_opt a placed, Col.Map.find_opt b placed) with
          | Some (a_slot, a_pos), Some (b_slot, b_pos) ->
              Some { a; a_pos; a_slot; b; b_pos; b_slot }
          | _ -> None)
        col_eqs;
    edges =
      List.map
        (fun ((a : Col.t), (b : Col.t)) -> (a.Col.tbl, b.Col.tbl))
        col_eqs;
    group =
      Option.map
        (fun gs -> Array.of_list (List.map (Eval.compile_expr slot) gs))
        sp.Spjg.group_by;
    items = Array.of_list (List.map (compile_item slot) sp.Spjg.out);
  }

let expr blk e = Eval.compile_expr (fun c -> Col.Map.find_opt c blk.slots) e

(* ---- operators --------------------------------------------------------- *)

(* Equijoin of [probe] tuples with [build] rows: [probe_key] names slots
   of a probe tuple, [build_key] the positions of a build row that must
   equal them, and [emit] makes the output tuple of one matching pair. A
   hash table over [build], probed by each tuple in turn; keys compare as
   exact tuples ([Value.Key]) and a NULL key never joins; no keys is a
   cross product. *)
let hash_join ~probe_key ~build_key ~emit probe build =
  if Array.length probe_key = 0 then
    List.concat_map (fun tup -> List.map (emit tup) build) probe
  else begin
    count strategy_hash 1;
    let table = Value.Key.create 256 in
    List.iter
      (fun row ->
        let kv = Array.map (fun p -> row.(p)) build_key in
        if not (has_null kv) then Value.Key.add table kv row)
      build;
    List.concat_map
      (fun tup ->
        let kv = Array.map (fun s -> tup.(s)) probe_key in
        if has_null kv then []
        else List.map (emit tup) (Value.Key.find_all table kv))
      probe
  end

let apply_preds (conjs : conj list) tuples =
  match conjs with
  | [] -> tuples
  | _ ->
      let kept =
        List.filter (fun t -> List.for_all (fun c -> c.holds t) conjs) tuples
      in
      count rows_filter (List.length kept);
      kept

(* Group the tuples by [keys] and evaluate [items] per group, groups in
   first-seen order. Zero tuples with no grouping keys yield one row (count
   0, sums NULL); with grouping keys, none. *)
let aggregate keys items tuples =
  let groups = Value.Key.create 64 in
  let order = ref [] in
  List.iter
    (fun t ->
      let k = Array.map (fun g -> g t) keys in
      match Value.Key.find_opt groups k with
      | Some rows -> rows := t :: !rows
      | None ->
          let rows = ref [ t ] in
          order := rows :: !order;
          Value.Key.add groups k rows)
    tuples;
  let groups =
    if tuples = [] && keys = [||] then [ [] ]
    else List.rev_map (fun rows -> !rows) !order
  in
  let rows =
    List.map
      (fun group_rows ->
        Array.map
          (function
            | Scalar f -> (
                match group_rows with t :: _ -> f t | [] -> Value.Null)
            | Agg f -> f group_rows)
          items)
      groups
  in
  count rows_group (List.length rows);
  rows

(* ---- cardinality estimation (with statistics) ------------------------- *)

(* A deliberately coarse mirror of [Mv_opt.Cost]'s single-table selectivity
   (the engine cannot depend on the optimizer): histograms/MCVs through
   [Stats.range_selectivity], 1/max-ndv for same-table column equality,
   fixed guesses for the rest. Only used to pick join orders. *)
let est_local_rows stats (s : source) =
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
      1.0 s.local
  in
  Float.max 1.0 (float_of_int (Stats.row_count stats s.name) *. sel)

(* A join key of [next] against the bound tables: [col] of [next] at
   stored position [pos], equal to [other] of a bound table at slot
   [slot]. *)
type key = { col : Col.t; pos : int; other : Col.t; slot : int }

let join_keys blk ~bound ~next =
  List.filter_map
    (fun e ->
      if e.a.Col.tbl = next && List.mem e.b.Col.tbl bound then
        Some { col = e.a; pos = e.a_pos; other = e.b; slot = e.b_slot }
      else if e.b.Col.tbl = next && List.mem e.a.Col.tbl bound then
        Some { col = e.b; pos = e.b_pos; other = e.a; slot = e.a_slot }
      else None)
    blk.equis

(* Selectivity of the equijoin between [next] and the bound set: containment
   assumption, one term per key. 1.0 when unconnected (cross product). *)
let join_selectivity stats blk ~bound ~next =
  List.fold_left
    (fun acc k ->
      acc /. float_of_int (max (Stats.ndv stats k.col) (Stats.ndv stats k.other)))
    1.0
    (join_keys blk ~bound ~next)

let table_connected blk bound t =
  List.exists
    (fun (x, y) -> (x = t && List.mem y bound) || (y = t && List.mem x bound))
    blk.edges

(* Greedy order by estimated intermediate cardinality: start at the table
   with the fewest estimated post-filter rows, then repeatedly take the
   connected table minimizing the estimated result of the next join
   (falling back to any table when nothing connects). Returns the order and
   the running estimate after each step. *)
let order_tables_est stats blk =
  match blk.sources with
  | [] | [ _ ] ->
      (* nothing to order and no join to instrument: skip estimation *)
      (blk.sources, [])
  | sources ->
      let base = List.map (fun s -> (s, est_local_rows stats s)) sources in
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
              List.filter (fun (s, _) -> table_connected blk bound s.name)
                remaining
            in
            let pool =
              if bound = [] || connected = [] then remaining else connected
            in
            let score (s, b) =
              if bound = [] then b
              else cur *. b *. join_selectivity stats blk ~bound ~next:s.name
            in
            let ((s, _) as pick) = argmin score pool in
            let cur' = score pick in
            go (s.name :: bound)
              (Float.max 1.0 cur')
              (List.filter (fun (u, _) -> u != s) remaining)
              (s :: order) (cur' :: ests)
      in
      go [] 1.0 base [] []

(* Greedy join order: start anywhere, prefer tables connected to the bound
   set by a column-equality predicate. *)
let order_tables blk =
  let rec go bound remaining acc =
    match remaining with
    | [] -> List.rev acc
    | _ ->
        let next =
          match
            List.find_opt (fun s -> table_connected blk bound s.name) remaining
          with
          | Some s -> s
          | None -> List.hd remaining
        in
        go (next.name :: bound) (List.filter (( != ) next) remaining) (next :: acc)
  in
  go [] blk.sources []

(* ---- the SPJ pipeline ------------------------------------------------- *)

(* Candidate rows of a table, narrowed through a declared index when one
   matches the table-local predicates: equality on an index prefix, or a
   range on the leading index column. All local predicates are re-applied
   by the caller, so the index only has to return a superset filtered by
   the conditions it used. *)
let table_source db (s : source) : Value.t array list =
  let tbl = Database.table_exn db s.name in
  let eq_cols, range_cols =
    List.fold_left
      (fun (eqs, rngs) (c, op, _) ->
        match op with
        | Pred.Eq -> (c.Col.col :: eqs, rngs)
        | _ -> (eqs, c.Col.col :: rngs))
      ([], []) s.ranges
  in
  let eq_value col =
    List.find_map
      (fun (c, op, v) ->
        if c.Col.col = col && op = Pred.Eq then Some v else None)
      s.ranges
  in
  let interval_of col =
    List.fold_left
      (fun acc (c, op, v) ->
        if c.Col.col = col && op <> Pred.Eq then
          Mv_relalg.Interval.intersect acc (Mv_relalg.Interval.of_cmp op v)
        else acc)
      Mv_relalg.Interval.full s.ranges
  in
  let try_index cols =
    match Database.index db ~table:s.name ~cols with
    | None -> None
    | Some ix -> (
        match Index.usable_for ix ~eq_cols ~range_cols with
        | Some (`Prefix n) ->
            let key =
              List.filteri (fun i _ -> i < n) cols
              |> List.map (fun c -> Option.get (eq_value c))
            in
            Some (Index.prefix_lookup ix key)
        | Some `Range -> Some (Index.range_scan ix (interval_of (List.hd cols)))
        | None -> None)
  in
  let rows =
    match List.find_map try_index (Database.declared_indexes db s.name) with
    | Some rows -> rows
    | None -> tbl.Table.rows
  in
  count rows_scan (List.length rows);
  rows

(* Join table [s] into the current tuples: an index nested loop when a
   declared index leads with a join key, the probe side has at most
   [nlj_threshold] tuples and the table more rows than that (building a
   hash table over the whole table would dominate), a hash join built on
   the table's stored rows otherwise. Both compare full key tuples exactly,
   so they produce identical bags, and both copy a stored row into a tuple
   only when it matches. *)
let join_source db blk ~bound tuples (s : source) =
  let source_rows = table_source db s in
  let keys = join_keys blk ~bound ~next:s.name in
  let extend tup row =
    let out = Array.copy tup in
    Array.iteri (fun j p -> out.(s.off + j) <- row.(p)) s.pos;
    out
  in
  (* The index serves the full table, possibly wider than the narrowed
     [source_rows]: harmless, since the caller re-applies every local
     predicate once the table is bound. *)
  let join_index () =
    List.find_map
      (fun cols ->
        match cols with
        | lead :: _ -> (
            match List.find_opt (fun k -> k.col.Col.col = lead) keys with
            | Some k ->
                Option.map
                  (fun ix -> (ix, k))
                  (Database.index db ~table:s.name ~cols)
            | None -> None)
        | [] -> None)
      (Database.declared_indexes db s.name)
  in
  let indexed_loop ix k0 =
    count strategy_inlj 1;
    List.concat_map
      (fun tup ->
        if List.exists (fun k -> Value.is_null tup.(k.slot)) keys then []
        else
          List.filter_map
            (fun row ->
              if
                List.for_all
                  (fun k ->
                    (not (Value.is_null row.(k.pos)))
                    && Value.equal row.(k.pos) tup.(k.slot))
                  keys
              then Some (extend tup row)
              else None)
            (Index.prefix_lookup ix [ tup.(k0.slot) ]))
      tuples
  in
  let small_probe () =
    List.compare_length_with tuples nlj_threshold <= 0
    && List.compare_length_with source_rows nlj_threshold > 0
  in
  let joined =
    if tuples = [] then []
    else
      (* the index is looked up (and built) only when it would be used *)
      match if small_probe () then join_index () else None with
      | Some (ix, k0) -> indexed_loop ix k0
      | None ->
          hash_join
            ~probe_key:(Array.of_list (List.map (fun k -> k.slot) keys))
            ~build_key:(Array.of_list (List.map (fun k -> k.pos) keys))
            ~emit:extend tuples source_rows
  in
  count rows_join (List.length joined);
  (s.name :: bound, joined)

(* The SPJ part: the bag of fully-joined, fully-filtered tuples. *)
let tuples ?stats db blk : tuple list =
  let order, ests =
    match stats with
    | Some st -> order_tables_est st blk
    | None -> (order_tables blk, [])
  in
  let rec go i bound pending tuples = function
    | [] ->
        (* any conjunct never applied (e.g. over a table outside the FROM
           list) runs here *)
        apply_preds pending tuples
    | s :: rest ->
        let bound', tuples' = join_source db blk ~bound tuples s in
        let ready, pending =
          List.partition
            (fun c -> List.for_all (fun t -> List.mem t bound') c.tables)
            pending
        in
        let filtered = apply_preds ready tuples' in
        (* estimation-error instrument: running estimate vs. the actual
           intermediate result, per join (the first table is a scan) *)
        (if i > 0 then
           match List.nth_opt ests i with
           | Some est -> observe_qerror ~est ~actual:(List.length filtered)
           | None -> ());
        go (i + 1) bound' pending filtered rest
  in
  go 0 [] blk.conjs [ Array.make blk.width Value.Null ] order

let run ?stats db blk : Relation.t =
  let tuples = tuples ?stats db blk in
  let rows =
    match blk.group with
    | None ->
        let project =
          Array.map
            (function
              | Scalar f -> f
              | Agg _ ->
                  fun _ ->
                    raise (Eval.Eval_error "aggregate output without GROUP BY"))
            blk.items
        in
        List.map (fun t -> Array.map (fun f -> f t) project) tuples
    | Some keys -> aggregate keys blk.items tuples
  in
  count rows_output (List.length rows);
  { Relation.cols = Spjg.out_names blk.spjg; rows }

let execute ?stats db (sp : Spjg.t) : Relation.t = run ?stats db (compile db sp)

(* ---- bags: plan node results ----------------------------------------- *)

module Bag = struct
  (* Each row lays out its columns side by side; [scope] resolves a bound
     column to its position. *)
  type t = { scope : int Col.Map.t; width : int; rows : tuple list }

  let scope_of binds =
    List.fold_left
      (fun (i, m) c -> (i + 1, Col.Map.add c i m))
      (0, Col.Map.empty) binds
    |> snd

  let of_relation ~binds (rel : Relation.t) =
    { scope = scope_of binds; width = List.length binds; rows = rel.Relation.rows }

  let resolve b c = Col.Map.find_opt c b.scope
  let binds b c = Col.Map.mem c b.scope
  let cardinality b = List.length b.rows

  let position b c = match resolve b c with Some i -> i | None -> unbound c

  (* A joined row is the left row followed by the right one; where both
     sides bind a column, the left side's value is the one read. *)
  let join ~keys ~post l r =
    let scope =
      Col.Map.union
        (fun _ x _ -> Some x)
        l.scope
        (Col.Map.map (( + ) l.width) r.scope)
    in
    let joined =
      hash_join
        ~probe_key:(Array.of_list (List.map (fun (a, _) -> position l a) keys))
        ~build_key:(Array.of_list (List.map (fun (_, b) -> position r b) keys))
        ~emit:Array.append l.rows r.rows
    in
    let rows =
      match post with
      | [] -> joined
      | _ ->
          let slot c = Col.Map.find_opt c scope in
          let holds = List.map (Eval.compile_holds slot) post in
          List.filter (fun t -> List.for_all (fun h -> h t) holds) joined
    in
    { scope; width = l.width + r.width; rows }

  let group ~by ~out ~binds b =
    let slot = resolve b in
    let keys = Array.of_list (List.map (Eval.compile_expr slot) by) in
    let items = Array.of_list (List.map (compile_item slot) out) in
    {
      scope = scope_of binds;
      width = List.length binds;
      rows = aggregate keys items b.rows;
    }

  let project exprs b =
    let fs = Array.of_list (List.map (Eval.compile_expr (resolve b)) exprs) in
    List.map (fun t -> Array.map (fun f -> f t) fs) b.rows
end

(* ---- views ------------------------------------------------------------- *)

let mark_fresh db (view : Mv_core.View.t) =
  Mv_core.View.mark_fresh
    ~epochs:
      (List.map
         (fun tn -> (tn, Database.table_epoch db tn))
         (Mv_util.Sset.elements view.Mv_core.View.source_tables))
    view

(* Materialize a view's contents as a table registered in the database. *)
let materialize db (view : Mv_core.View.t) : Table.t =
  let rel = execute db (Mv_core.View.spjg view) in
  let def = Mv_core.View.as_table_def db.Database.schema view in
  let tbl = Table.of_rows def rel.Relation.rows in
  Database.add_table db tbl;
  view.Mv_core.View.row_count <- List.length rel.Relation.rows;
  mark_fresh db view;
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
let materialize_stats db (view : Mv_core.View.t) stats :
    Table.t * Mv_catalog.Stats.t =
  let tbl = materialize db view in
  let ts = Database.table_stats db view.Mv_core.View.name in
  (tbl, (view.Mv_core.View.name, ts) :: stats)

(* Execute a substitute: its block references the view's materialized
   table, which must exist in [db] (see [materialize]). *)
let execute_substitute ?stats db (s : Mv_core.Substitute.t) : Relation.t =
  execute ?stats db s.Mv_core.Substitute.block

(* UNION ALL of a union substitute's parts (all views materialized). *)
let execute_union ?stats db (u : Mv_core.Union_substitute.t) :
    Relation.t =
  match u.Mv_core.Union_substitute.parts with
  | [] -> invalid_arg "Exec.execute_union: empty union"
  | first :: rest ->
      let r0 = execute_substitute ?stats db first in
      List.fold_left
        (fun (acc : Relation.t) part ->
          let r = execute_substitute ?stats db part in
          { acc with Relation.rows = acc.Relation.rows @ r.Relation.rows })
        r0 rest
