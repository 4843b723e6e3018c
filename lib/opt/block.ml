(** A query's join graph, and construction of the SPJG subexpression blocks
    on which the view-matching rule is invoked: the block of a table
    subset, and the preaggregated inner blocks of section 3.3's Example 4.
    Table subsets are bitmasks over the FROM list. *)

open Mv_base
module Spjg = Mv_relalg.Spjg

let out_of_cols cols : Spjg.out_item list =
  (* TPC-H column names are globally unique; fall back to tbl_col when a
     name collides across tables *)
  let dup name cols =
    List.length (List.filter (fun (c : Col.t) -> c.Col.col = name) cols) > 1
  in
  List.map
    (fun (c : Col.t) ->
      let name = if dup c.Col.col cols then c.Col.tbl ^ "_" ^ c.Col.col else c.Col.col in
      Spjg.scalar name (Expr.Col c))
    cols

(* The SPJ part of the whole query (aggregation stripped): outputs every
   column the grouping and aggregation still need. *)
let spj_part (query : Spjg.t) : Spjg.t =
  match query.Spjg.group_by with
  | None -> query
  | Some _ ->
      let cols = Col.Set.elements (Spjg.referenced_columns query) in
      Spjg.make ~tables:query.Spjg.tables ~where:query.Spjg.where
        ~group_by:None ~out:(out_of_cols cols)

(* ---- the join graph ---- *)

(* One WHERE conjunct, placed by the mask of the tables its columns
   reference; [eq] holds the two sides of a column equality. *)
type conjunct = {
  pred : Pred.t;
  mask : int;
  eq : ((Col.t * int) * (Col.t * int)) option;
}

type t = {
  query : Spjg.t;
  spj : Spjg.t;  (** [spj_part query] *)
  tables : string array;  (** the FROM list; bit [i] is [tables.(i)] *)
  conjuncts : conjunct array;  (** in WHERE order *)
  adjacent : int array;
      (** per table, the tables it shares a column equality with *)
  refs : (Col.t * int) list;
      (** the columns the query references, in [Col.compare] order, each
          with its table's bit *)
}

(* A column whose table is outside the FROM list gets the bit past the
   last table, which no subset holds. *)
let bit tables tbl =
  let n = Array.length tables in
  let rec find i =
    if i = n || String.equal tables.(i) tbl then 1 lsl i else find (i + 1)
  in
  find 0

let of_query (query : Spjg.t) =
  let tables = Array.of_list query.Spjg.tables in
  let placed (c : Col.t) = (c, bit tables c.Col.tbl) in
  let conjunct p =
    {
      pred = p;
      mask =
        List.fold_left
          (fun m (c : Col.t) -> m lor bit tables c.Col.tbl)
          0 (Pred.columns p);
      eq =
        (match p with
        | Pred.Cmp (Pred.Eq, Expr.Col a, Expr.Col b) -> Some (placed a, placed b)
        | _ -> None);
    }
  in
  let conjuncts = Array.of_list (List.map conjunct query.Spjg.where) in
  let adjacent =
    Array.mapi
      (fun i _ ->
        let me = 1 lsl i in
        Array.fold_left
          (fun adj c ->
            match c.eq with
            | Some ((_, ba), (_, bb)) when ba = me && bb <> me -> adj lor bb
            | Some ((_, ba), (_, bb)) when bb = me && ba <> me -> adj lor ba
            | _ -> adj)
          0 conjuncts)
      tables
  in
  {
    query;
    spj = spj_part query;
    tables;
    conjuncts;
    adjacent;
    refs = List.map placed (Col.Set.elements (Spjg.referenced_columns query));
  }

let within mask subset = mask land lnot subset = 0

let full g = (1 lsl Array.length g.tables) - 1

let names g mask =
  List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list g.tables)

(* The tables sharing a column equality with a table of [mask]. *)
let neighbours g mask =
  let acc = ref 0 in
  for i = 0 to Array.length g.adjacent - 1 do
    if mask land (1 lsl i) <> 0 then acc := !acc lor g.adjacent.(i)
  done;
  !acc

let connected g mask =
  (* grow the tables reachable from the lowest one until nothing is added *)
  let rec grow reach =
    let next = reach lor (neighbours g reach land mask) in
    if next = reach then reach else grow next
  in
  mask <> 0 && grow (mask land -mask) = mask

let keys g l r =
  Array.fold_right
    (fun c acc ->
      match c.eq with
      | Some ((a, ba), (b, bb)) ->
          if ba land l <> 0 && bb land r <> 0 then (a, b) :: acc
          else if bb land l <> 0 && ba land r <> 0 then (b, a) :: acc
          else acc
      | None -> acc)
    g.conjuncts []

(* A column equality bound by [l ∪ r] but by neither side joins a column
   of [l] to one of [r], so it is one of the split's keys. *)
let post g l r =
  Array.fold_right
    (fun c acc ->
      if
        within c.mask (l lor r)
        && (not (within c.mask l))
        && (not (within c.mask r))
        && Option.is_none c.eq
      then c.pred :: acc
      else acc)
    g.conjuncts []

let next g ~joined rest =
  let linked = rest land neighbours g joined in
  let pick = if linked = 0 then rest else linked in
  pick land -pick

(* ---- blocks ---- *)

(* Conjuncts that only reference the subset's tables, in WHERE order. *)
let local_preds g mask =
  Array.fold_right
    (fun c acc -> if within c.mask mask then c.pred :: acc else acc)
    g.conjuncts []

(* SPJ block for a subset of the query's tables. Its outputs are the
   subset's columns the rest of the query still needs: those of crossing
   conjuncts, of the output list and of the grouping list, which are the
   subset's share of the query's referenced columns (every WHERE column is
   one). *)
let sub_block g mask : Spjg.t =
  if mask = full g then g.spj
  else
    Spjg.make ~tables:(names g mask) ~where:(local_preds g mask)
      ~group_by:None
      ~out:
        (out_of_cols
           (List.filter_map
              (fun (c, b) -> if b land mask <> 0 then Some c else None)
              g.refs))

(* A preaggregated inner block over a table subset (Example 4): group the
   subset by (query grouping expressions local to the subset) + (crossing
   join columns), output those plus count_big and the query's SUM/AVG
   inputs. Returns the block plus the binding spec of its aggregate
   outputs. *)
type preagg = {
  block : Spjg.t;
  agg_binds : (string * Spjg.agg) list;
      (** inner output name -> the query aggregate it serves *)
}

let preagg_block g mask : preagg option =
  let query = g.query in
  match query.Spjg.group_by with
  | None -> None
  | Some gq ->
      let in_subset (c : Col.t) = bit g.tables c.Col.tbl land mask <> 0 in
      let agg_args =
        List.filter_map
          (fun (o : Spjg.out_item) ->
            match o.Spjg.def with
            | Spjg.Aggregate (Spjg.Sum e | Spjg.Avg e) -> Some e
            | Spjg.Aggregate (Spjg.Sum_div_sum _) -> Some (Expr.Const Value.Null)
            | _ -> None)
          query.Spjg.out
      in
      (* every aggregate argument must be computable inside the subset *)
      if
        not
          (List.for_all
             (fun e -> List.for_all in_subset (Expr.columns e))
             agg_args)
      then None
      else
        let local_group =
          List.filter (fun g -> List.for_all in_subset (Expr.columns g)) gq
        in
        (* subset columns the outside still needs: crossing conjuncts and
           scalar (non-aggregate) outputs — NOT aggregate arguments (the
           inner sums consume them) and NOT purely local predicates *)
        let crossing_conjunct_cols =
          Array.fold_right
            (fun c acc ->
              if within c.mask mask then acc else Pred.columns c.pred @ acc)
            g.conjuncts []
        in
        let scalar_out_cols =
          List.concat_map
            (fun (o : Spjg.out_item) ->
              match o.Spjg.def with
              | Spjg.Scalar e -> Expr.columns e
              | Spjg.Aggregate _ -> [])
            query.Spjg.out
        in
        let crossing_cols =
          List.sort_uniq Col.compare
            (List.filter in_subset (crossing_conjunct_cols @ scalar_out_cols))
        in
        let grouping =
          (* grouping expressions, then any crossing column not already
             grouped (as bare columns) *)
          local_group
          @ List.filter_map
              (fun c ->
                let e = Expr.Col c in
                if List.exists (Expr.equal e) local_group then None
                else Some e)
              crossing_cols
        in
        let group_outs =
          List.mapi
            (fun i g ->
              match g with
              | Expr.Col c -> Spjg.scalar c.Col.col (Expr.Col c)
              | e -> Spjg.scalar (Printf.sprintf "g_%d" i) e)
            grouping
        in
        let sum_outs, agg_binds =
          List.fold_left
            (fun (outs, binds) (o : Spjg.out_item) ->
              match o.Spjg.def with
              | Spjg.Aggregate ((Spjg.Sum e | Spjg.Avg e) as a) ->
                  let name = "s_" ^ o.Spjg.name in
                  if List.mem_assoc name binds then (outs, binds)
                  else
                    ( outs @ [ Spjg.aggregate name (Spjg.Sum e) ],
                      binds @ [ (name, a) ] )
              | _ -> (outs, binds))
            ([], []) query.Spjg.out
        in
        let out = group_outs @ [ Spjg.aggregate "cnt" Spjg.Count_star ] @ sum_outs in
        match
          Spjg.make ~tables:(names g mask) ~where:(local_preds g mask)
            ~group_by:(Some grouping) ~out
        with
        | block -> Some { block; agg_binds }
        | exception Spjg.Invalid _ -> None
