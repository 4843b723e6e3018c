(** Direct execution of SPJG blocks with SQL bag semantics: the one join
    pipeline behind direct execution, plan execution, materialization and
    incremental maintenance, and the one GROUP BY state.

    A block compiles once per execution (once per view for IVM delta
    terms) into a slot layout: one slot per column it references, table by
    table in FROM order and column by column in definition order, so the
    layout does not depend on the join order picked at run time. Tuples
    are [Value.t array]s in that layout; conjuncts, outputs, grouping keys
    and SUM arguments are closures over slots ([Mv_base.Eval.compile_*]).

    The executor orders the join (by estimated intermediate cardinality
    when statistics are given, by connectivity otherwise), joins each
    table on its keys by a hash join over the rows it reads, keyed on the
    stored rows' column positions, copies a stored row's referenced
    columns into a tuple only when it matches, applies each conjunct as
    soon as all its columns are bound, then groups and projects. Grouping
    folds each tuple into its group's count and SUMs and keeps no tuple.
    Join and reuse counts and estimation error are recorded on the global
    registry. *)

open Mv_base
module Spjg = Mv_relalg.Spjg
module Stats = Mv_catalog.Stats

(* Row counters per operator kind ([exec.rows.<kind>]), the hash join
   counter ([exec.join.strategy.hash]) and the per-join q-error
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
let build_reused = counter "exec.build.reused"
let count c n = Mv_obs.Instrument.add (c ()) n

let qerror_hist =
  Mv_obs.Registry.resolver Mv_obs.Registry.histogram Mv_obs.Registry.global
    "exec.estimation.qerror"

let observe_qerror ~est ~actual =
  if est > 0.0 && actual > 0 then
    let a = float_of_int actual in
    Mv_obs.Instrument.observe (qerror_hist ()) (Float.max (est /. a) (a /. est))

type tuple = Value.t array

let unbound c = raise (Eval.Eval_error ("unbound column " ^ Col.to_string c))
let has_null = Array.exists Value.is_null

(* ---- grouping ---------------------------------------------------------- *)

(* Every aggregate is the count or SUMs: SUM, SUM0 and AVG of an
   argument, and SUM/SUM of two. A group holds its key, its tuple count
   and, per SUM argument, the raw sum of the non-null values and how
   many there were, each tuple folded in once with a sign; [row] is a
   maintained view's row for it (empty until set). *)
type group = {
  key : Value.t array;
  mutable count : int;
  sums : Value.t array;
  nonnull : int array;
  mutable row : Value.t array;
}

(* Where an output column of a grouped block comes from: the [i]-th
   grouping expression, the count, or the sums of SUM arguments. *)
type out_col =
  | Key_col of int
  | Count_col
  | Sum_col of int
  | Sum0_col of int
  | Avg_col of int
  | Ratio_col of int * int

type grouping = {
  keys : (tuple -> Value.t) array;  (** the grouping expressions *)
  args : (tuple -> Value.t) array;  (** the distinct SUM arguments *)
  layout : out_col array;  (** one per output column *)
}

(* The grouping of [out] by [by], compiled against [slot]. *)
let compile_grouping slot ~by (out : Spjg.out_item list) =
  (* the index of SUM argument [e], each distinct one compiled once *)
  let args = ref [] in
  let arg e =
    match List.find_index (Expr.equal e) !args with
    | Some j -> j
    | None ->
        args := !args @ [ e ];
        List.length !args - 1
  in
  let out_col (o : Spjg.out_item) =
    match o.Spjg.def with
    | Spjg.Scalar e -> (
        match List.find_index (Expr.equal e) by with
        | Some i -> Key_col i
        | None ->
            invalid_arg
              ("Exec: scalar output " ^ o.Spjg.name
             ^ " is not a grouping expression"))
    | Spjg.Aggregate Spjg.Count_star -> Count_col
    | Spjg.Aggregate (Spjg.Sum e) -> Sum_col (arg e)
    | Spjg.Aggregate (Spjg.Sum0 e) -> Sum0_col (arg e)
    | Spjg.Aggregate (Spjg.Avg e) -> Avg_col (arg e)
    | Spjg.Aggregate (Spjg.Sum_div_sum (num, den)) ->
        let j = arg num in
        Ratio_col (j, arg den)
  in
  let layout = Array.of_list (List.map out_col out) in
  {
    keys = Array.of_list (List.map (Eval.compile_expr slot) by);
    args = Array.of_list (List.map (Eval.compile_expr slot) !args);
    layout;
  }

(* SUM's addition: NULL is the identity, Int + Int stays Int. *)
let add_value a b =
  match (a, b) with
  | Value.Null, v | v, Value.Null -> v
  | _ -> Eval.arith Expr.Add a b

let new_group gr key =
  let n = Array.length gr.args in
  {
    key;
    count = 0;
    sums = Array.make n Value.Null;
    nonnull = Array.make n 0;
    row = [||];
  }

(* The group of [t] in [groups], added empty when new. *)
let group_of gr groups t =
  let key = Array.map (fun f -> f t) gr.keys in
  match Value.Key.find_opt groups key with
  | Some g -> g
  | None ->
      let g = new_group gr key in
      Value.Key.add groups key g;
      g

let add_tuple gr g t sign =
  g.count <- g.count + sign;
  for j = 0 to Array.length gr.args - 1 do
    match gr.args.(j) t with
    | Value.Null -> ()
    | v ->
        g.nonnull.(j) <- g.nonnull.(j) + sign;
        let v = if sign > 0 then v else Eval.arith Expr.Sub (Value.Int 0) v in
        g.sums.(j) <- add_value g.sums.(j) v
  done

let fold gr groups t sign = add_tuple gr (group_of gr groups t) t sign

(* [tuples] folded into a new table, and its groups in first-seen order
   (folding only adds, so a group is new while its count is 0). A
   grouping without keys has its one group even over no tuples. *)
let group_tuples gr tuples =
  let groups = Value.Key.create 64 and order = ref [] in
  List.iter
    (fun t ->
      let g = group_of gr groups t in
      if g.count = 0 then order := g :: !order;
      add_tuple gr g t 1)
    tuples;
  if !order = [] && gr.keys = [||] then begin
    let g = new_group gr [||] in
    Value.Key.add groups [||] g;
    order := [ g ]
  end;
  (groups, List.rev !order)

let groups gr tuples = fst (group_tuples gr tuples)

let merge ~into d =
  into.count <- into.count + d.count;
  for j = 0 to Array.length d.sums - 1 do
    into.sums.(j) <- add_value into.sums.(j) d.sums.(j);
    into.nonnull.(j) <- into.nonnull.(j) + d.nonnull.(j)
  done

let cancelled d =
  let zero v = Value.is_null v || Value.order v (Value.Int 0) = 0 in
  d.count = 0 && Array.for_all (( = ) 0) d.nonnull && Array.for_all zero d.sums

(* SUM of argument [j]: NULL without a non-null input. *)
let sum g j = if g.nonnull.(j) = 0 then Value.Null else g.sums.(j)

let render gr g =
  Array.map
    (function
      | Key_col i -> g.key.(i)
      | Count_col -> Value.Int g.count
      | Sum_col j -> sum g j
      | Sum0_col j -> if g.nonnull.(j) = 0 then Value.Int 0 else g.sums.(j)
      | Avg_col j ->
          if g.nonnull.(j) = 0 then Value.Null
          else Eval.arith Expr.Div g.sums.(j) (Value.Int g.nonnull.(j))
      | Ratio_col (j, k) -> Eval.arith Expr.Div (sum g j) (sum g k))
    gr.layout

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

(* An SPJ block projects each tuple; a grouped block folds them. *)
type output = Project of (tuple -> Value.t) array | Group of grouping

type block = {
  spjg : Spjg.t;
  width : int;
  slots : int Col.Map.t;
  sources : source list;  (** FROM order *)
  conjs : conj list;  (** WHERE order *)
  equis : equi list;
  edges : (string * string) list;  (** tables an equality of columns joins *)
  output : output;
}

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
    output =
      (match sp.Spjg.group_by with
      | Some by -> Group (compile_grouping slot ~by sp.Spjg.out)
      | None ->
          (* [Spjg.make] admits no aggregate output without a GROUP BY *)
          let project (o : Spjg.out_item) =
            match o.Spjg.def with
            | Spjg.Scalar e -> Eval.compile_expr slot e
            | Spjg.Aggregate _ -> assert false
          in
          Project (Array.of_list (List.map project sp.Spjg.out)));
  }

let output blk = blk.output

(* ---- operators --------------------------------------------------------- *)

(* A hash table over [build] rows keyed on their positions [build_key]:
   keys compare as exact tuples ([Value.Key]); a row with a NULL key never
   joins, so it is left out. *)
let build_table ~build_key build =
  let table = Value.Key.create 256 in
  List.iter
    (fun row ->
      let kv = Array.map (fun p -> row.(p)) build_key in
      if not (has_null kv) then Value.Key.add table kv row)
    build;
  table

(* Each [probe] tuple against [table], keyed on its slots [probe_key];
   [emit] makes the output tuple of one matching pair. *)
let probe_table ~probe_key ~emit table probe =
  List.concat_map
    (fun tup ->
      let kv = Array.map (fun s -> tup.(s)) probe_key in
      if has_null kv then []
      else List.map (emit tup) (Value.Key.find_all table kv))
    probe

let cross ~emit probe build =
  List.concat_map (fun tup -> List.map (emit tup) build) probe

(* Equijoin of [probe] tuples with [build] rows: [probe_key] names slots
   of a probe tuple, [build_key] the positions of a build row that must
   equal them. No keys is a cross product. *)
let hash_join ~probe_key ~build_key ~emit probe build =
  if Array.length probe_key = 0 then cross ~emit probe build
  else begin
    count strategy_hash 1;
    probe_table ~probe_key ~emit (build_table ~build_key build) probe
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

(* The output rows of [tuples] grouped by [gr], groups in first-seen
   order: zero tuples with no grouping keys yield one row (count 0, sums
   NULL); with grouping keys, none. *)
let aggregate gr tuples =
  let rows = List.map (render gr) (snd (group_tuples gr tuples)) in
  count rows_group (List.length rows);
  rows

(* ---- cardinality estimation (with statistics) ------------------------- *)

(* A table's rows after its local conjuncts, by the optimizer's own
   selectivity model. Only used to pick join orders. *)
let est_local_rows stats (s : source) =
  let sel =
    List.fold_left
      (fun acc p -> acc *. Mv_relalg.Classify.selectivity stats p)
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

(* Candidate rows among [rows], narrowed through one of [indexes] (the
   declared ones when [rows] is the table's current list, none otherwise)
   when one matches the table-local predicates: equality on an index
   prefix, or a range on the leading index column. All local predicates
   are re-applied by the caller, so the index only has to return a
   superset filtered by the conditions it used. *)
let table_source db (s : source) ~indexes rows : Value.t array list =
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
  match List.find_map try_index indexes with
  | Some narrowed -> narrowed
  | None -> rows

(* Join table [s], reading the rows [stored], into the current tuples.
   Joined on keys, it is a hash join over [stored]: when [stored] is
   physically the table's current list the hash table is the one
   [Database.build_table] keeps until the table is written, and over a
   slice (an IVM delta or pre-batch list) one is built for this join.
   Joined on no key (the first table scanned, or a cross product), it
   reads [stored] narrowed through a declared index when [stored] is the
   current list. The table's local conjuncts apply once it is bound
   either way. A stored row is copied into a tuple only when it matches.
   [exec.rows.scan] counts the stored rows read: each row of a build (not
   a reuse) or of a cross product. *)
let join_source db blk ~stored ~bound tuples (s : source) =
  let current = (Database.table_exn db s.name).Table.rows in
  let keys = join_keys blk ~bound ~next:s.name in
  let extend tup row =
    let out = Array.copy tup in
    Array.iteri (fun j p -> out.(s.off + j) <- row.(p)) s.pos;
    out
  in
  let hashed () =
    count strategy_hash 1;
    let build_key = Array.of_list (List.map (fun k -> k.pos) keys) in
    let build rows =
      count rows_scan (List.length rows);
      build_table ~build_key rows
    in
    let table =
      if stored == current then begin
        let table, reused =
          Database.build_table db ~table:s.name ~key:build_key stored build
        in
        if reused then count build_reused 1;
        table
      end
      else build stored
    in
    probe_table
      ~probe_key:(Array.of_list (List.map (fun k -> k.slot) keys))
      ~emit:extend table tuples
  in
  let scanned () =
    let indexes =
      if stored == current then Database.declared_indexes db s.name else []
    in
    let rows = table_source db s ~indexes stored in
    count rows_scan (List.length rows);
    cross ~emit:extend tuples rows
  in
  let joined =
    if tuples = [] then [] else if keys = [] then scanned () else hashed ()
  in
  count rows_join (List.length joined);
  (s.name :: bound, joined)

(* The SPJ part: the bag of fully-joined, fully-filtered tuples, each
   FROM table reading [rows] of its name (by default its current list). *)
let tuples ?stats ?rows db blk : tuple list =
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
        let stored =
          match rows with
          | Some rows -> rows s.name
          | None -> (Database.table_exn db s.name).Table.rows
        in
        let bound', tuples' = join_source db blk ~stored ~bound tuples s in
        let ready, pending =
          List.partition
            (fun c -> List.for_all (fun t -> List.mem t bound') c.tables)
            pending
        in
        let filtered = apply_preds ready tuples' in
        (* estimation-error instrument: running estimate vs. the actual
           intermediate result, per join (the first table is a scan), only
           when the tables read are the ones [stats] describes *)
        (if i > 0 && Option.is_none rows then
           match List.nth_opt ests i with
           | Some est -> observe_qerror ~est ~actual:(List.length filtered)
           | None -> ());
        go (i + 1) bound' pending filtered rest
  in
  go 0 [] blk.conjs [ Array.make blk.width Value.Null ] order

let run ?stats db blk : Relation.t =
  let tuples = tuples ?stats db blk in
  let rows =
    match blk.output with
    | Project fs -> List.map (fun t -> Array.map (fun f -> f t) fs) tuples
    | Group gr -> aggregate gr tuples
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
    {
      scope = scope_of binds;
      width = List.length binds;
      rows = aggregate (compile_grouping (resolve b) ~by out) b.rows;
    }

  let project exprs b =
    let fs = Array.of_list (List.map (Eval.compile_expr (resolve b)) exprs) in
    List.map (fun t -> Array.map (fun f -> f t) fs) b.rows
end

(* ---- views ------------------------------------------------------------- *)

(* Materialize a view's contents as a table registered in the database. *)
let materialize db (view : Mv_core.View.t) : Table.t =
  let rel = execute db (Mv_core.View.spjg view) in
  let def = Mv_core.View.as_table_def db.Database.schema view in
  let tbl = Table.of_rows def rel.Relation.rows in
  Database.add_table db tbl;
  view.Mv_core.View.row_count <- List.length rel.Relation.rows;
  List.iter
    (fun cols ->
      Database.declare_index db ~table:view.Mv_core.View.name ~cols)
    view.Mv_core.View.indexes;
  tbl

(* Materialize and return the statistics extended with an entry for the
   view's actual contents, so estimate_view_rows and the optimizer's
   substitute costing see measured numbers instead of the analytic
   estimate (view-level statistics for unmaintained views; a maintained
   view's entry is rebuilt by Ivm.refresh_stats once its changed rows
   pass the rebuild threshold). *)
let materialize_stats db (view : Mv_core.View.t) stats :
    Table.t * Mv_catalog.Stats.t =
  let tbl = materialize db view in
  let ts = Database.table_stats db view.Mv_core.View.name in
  (tbl, Mv_catalog.Stats.add view.Mv_core.View.name ts stats)

(* Execute a substitute: its block references the view's materialized
   table, which must exist in [db] (see [materialize]). *)
let execute_substitute ?stats db (s : Mv_core.Substitute.t) : Relation.t =
  execute ?stats db s.Mv_core.Substitute.block
