(** A deliberately naive SPJG evaluator: the test oracle for the executor.

    Nested loops over the FROM list, each conjunct applied as soon as all
    its columns are bound, then grouping by keys compared with
    [Value.order]. It reads table rows straight from the database and
    evaluates through [Mv_base.Eval], sharing no join, filter or grouping
    code with the executor, so a bug there cannot hide by affecting both
    sides of a comparison.

    The loops follow the FROM list in order, except that the next loop
    runs over the first remaining table some conjunct connects to the
    tables already bound. In strict FROM order, two tables joined only
    through a later one form their full cross product first (lineitem x
    part before partsupp), which takes a four-table query at scale 2 over
    a second. *)

open Mv_base
module Spjg = Mv_relalg.Spjg

(* A partial tuple: per bound table, its column names and one row. *)
type tuple = (string * (string list * Value.t array)) list

let lookup (tup : tuple) (c : Col.t) =
  let unbound () =
    raise (Eval.Eval_error ("unbound column " ^ Col.to_string c))
  in
  match List.assoc_opt c.Col.tbl tup with
  | None -> unbound ()
  | Some (names, row) ->
      let rec find i = function
        | [] -> unbound ()
        | n :: rest -> if n = c.Col.col then row.(i) else find (i + 1) rest
      in
      find 0 names

let holds tup p = Eval.pred_holds (lookup tup) p

(* The bag of fully-joined, fully-filtered tuples. A table's own
   conjuncts filter its rows once; conjuncts spanning tables apply to
   every combination the moment their last table is bound. *)
let spj_tuples db (block : Spjg.t) : tuple list =
  let step (bound, tuples, pending) tname =
    let tbl = Mv_engine.Database.table_exn db tname in
    let names =
      List.map
        (fun (c : Mv_catalog.Column.t) -> c.Mv_catalog.Column.name)
        tbl.Mv_engine.Table.def.Mv_catalog.Table_def.columns
    in
    let bound = tname :: bound in
    let ready, pending =
      List.partition
        (fun p ->
          List.for_all
            (fun (c : Col.t) -> List.mem c.Col.tbl bound)
            (Pred.columns p))
        pending
    in
    let own, spanning =
      List.partition
        (fun p ->
          let cols = Pred.columns p in
          cols <> []
          && List.for_all (fun (c : Col.t) -> c.Col.tbl = tname) cols)
        ready
    in
    let rows =
      List.filter
        (fun row -> List.for_all (holds [ (tname, (names, row)) ]) own)
        tbl.Mv_engine.Table.rows
    in
    let tuples =
      List.concat_map
        (fun tup ->
          List.filter_map
            (fun row ->
              let tup = (tname, (names, row)) :: tup in
              if List.for_all (holds tup) spanning then Some tup else None)
            rows)
        tuples
    in
    (bound, tuples, pending)
  in
  let connects bound t =
    List.exists
      (fun p ->
        let tbls = List.map (fun (c : Col.t) -> c.Col.tbl) (Pred.columns p) in
        List.mem t tbls && List.exists (fun u -> List.mem u bound) tbls)
      block.Spjg.where
  in
  let rec loops ((bound, _, _) as acc) = function
    | [] -> acc
    | remaining ->
        let t =
          match List.find_opt (connects bound) remaining with
          | Some t -> t
          | None -> List.hd remaining
        in
        loops (step acc t) (List.filter (( <> ) t) remaining)
  in
  match loops ([], [ [] ], block.Spjg.where) block.Spjg.tables with
  | _, tuples, [] -> tuples
  | _, _, p :: _ ->
      failwith ("Naive: conjunct over no FROM table: " ^ Pred.to_string p)

let sum values =
  List.fold_left
    (fun acc v ->
      match (acc, v) with
      | _, Value.Null -> acc
      | Value.Null, v -> v
      | acc, v -> Eval.arith Expr.Add acc v)
    Value.Null values

let agg (rows : tuple list) (a : Spjg.agg) =
  let values e = List.map (fun tup -> Eval.expr (lookup tup) e) rows in
  match a with
  | Spjg.Count_star -> Value.Int (List.length rows)
  | Spjg.Sum e -> sum (values e)
  | Spjg.Sum0 e -> (
      match sum (values e) with Value.Null -> Value.Int 0 | v -> v)
  | Spjg.Avg e -> (
      match List.filter (fun v -> not (Value.is_null v)) (values e) with
      | [] -> Value.Null
      | vs -> Eval.arith Expr.Div (sum vs) (Value.Int (List.length vs)))
  | Spjg.Sum_div_sum (num, den) ->
      Eval.arith Expr.Div (sum (values num)) (sum (values den))

(* Groups in first-seen order, each with its tuples in arrival order. *)
let group gexprs (tuples : tuple list) =
  let same k k' = List.for_all2 (fun a b -> Value.order a b = 0) k k' in
  let groups =
    List.fold_left
      (fun groups tup ->
        let key = List.map (Eval.expr (lookup tup)) gexprs in
        let rec add = function
          | [] -> [ (key, [ tup ]) ]
          | (k, rows) :: rest when same k key -> (k, tup :: rows) :: rest
          | g :: rest -> g :: add rest
        in
        add groups)
      [] tuples
  in
  List.map (fun (_, rows) -> List.rev rows) groups

let execute db (block : Spjg.t) : Mv_engine.Relation.t =
  let tuples = spj_tuples db block in
  let row_of rows =
    Array.of_list
      (List.map
         (fun (o : Spjg.out_item) ->
           match (o.Spjg.def, rows) with
           | Spjg.Scalar e, tup :: _ -> Eval.expr (lookup tup) e
           | Spjg.Scalar _, [] -> Value.Null
           | Spjg.Aggregate a, _ -> agg rows a)
         block.Spjg.out)
  in
  let rows =
    match block.Spjg.group_by with
    | None -> List.map (fun tup -> row_of [ tup ]) tuples
    | Some [] when tuples = [] -> [ row_of [] ]
    | Some gexprs -> List.map row_of (group gexprs tuples)
  in
  { Mv_engine.Relation.cols = Spjg.out_names block; rows }
