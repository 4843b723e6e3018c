(** Incremental view maintenance: counting-based bag deltas through SPJG
    (DESIGN.md §12). The join delta telescopes over the view's tables —

      ΔQ = Σᵢ  T1ⁿᵉʷ ⋈ … ⋈ Tᵢ₋₁ⁿᵉʷ ⋈ ΔTᵢ ⋈ Tᵢ₊₁ᵒˡᵈ ⋈ … ⋈ Tnᵒˡᵈ

    — and each term runs the view's block, compiled once at attach, through
    the ordinary executor against a scratch
    database holding the right old/delta/new slice per table, with
    synthetic statistics that make the (tiny) delta table the cheapest so
    the estimated join order starts there; slices that are the live
    tables themselves keep their indexes, so the join probes them. SPJ
    deltas edit the view's bag directly; aggregation deltas fold into the
    stored grouping columns, count_big( * ) and SUMs through a per-group
    sidecar that also tracks non-null SUM contributions (NULL vs 0 on
    all-NULL groups). Each view column's sorted non-null values follow the
    exact rows a batch adds and removes, so statistics refresh without
    re-sorting. *)

open Mv_base
module Spjg = Mv_relalg.Spjg
module Stats = Mv_catalog.Stats
module View = Mv_core.View
module Sset = Mv_util.Sset

type delta = { ins : Value.t array list; del : Value.t array list }

type batch = (string * delta) list

(* UPDATE as delete+insert sugar: the bag difference of the before/after
   rows, in pair order. *)
let updates pairs =
  {
    del = List.map fst pairs;
    ins = List.map snd pairs;
  }

exception Unsupported of string

exception Inconsistent of string

exception Invalid_batch of string

let invalid_batch fmt =
  Fmt.kstr (fun s -> raise (Invalid_batch ("Ivm.apply: " ^ s))) fmt

(* Progress counters on [Mv_obs.Registry.global], each resolved on first
   use and bumped without a lookup after. *)
let counter name =
  Mv_obs.Registry.resolver Mv_obs.Registry.counter Mv_obs.Registry.global
    ("ivm." ^ name)

let batches = counter "batches"
let views_updated = counter "views.updated"
let rows_plus = counter "rows.plus"
let rows_minus = counter "rows.minus"
let groups_born = counter "groups.born"
let groups_died = counter "groups.died"
let bump c n = if n <> 0 then Mv_obs.Instrument.add (c ()) n
let tick c = Mv_obs.Instrument.incr (c ())

(* ---- aggregate view shape -------------------------------------------- *)

type sum_spec = {
  s_eval : Exec.tuple -> Value.t;
  s_zero : bool;  (** Sum0: render 0 *)
}

(* Where each output column of an aggregation view comes from. *)
type slot =
  | Key of int  (** i-th grouping (scalar) output *)
  | Count_slot
  | Sum_slot of int

type agg_shape = {
  scalars : (Exec.tuple -> Value.t) array;  (** grouping outputs, in output order *)
  sums : sum_spec array;
  layout : slot array;  (** one per output column *)
  key_cols : int array;  (** column position of each grouping output *)
  scalar_only : bool;  (** [group_by = Some []]: the single row never dies *)
}

(* Indexable aggregation views ([View.create] enforces [check_indexable])
   output every grouping expression and a count column and never AVG, so
   the scalar outputs determine the group and counts/sums are foldable —
   exactly the property that makes them maintainable. Every expression
   compiles against the view block's layout. *)
let shape_of (name : string) (sp : Spjg.t) block : agg_shape =
  let scalars = ref [] and sums = ref [] in
  let layout =
    List.map
      (fun (o : Spjg.out_item) ->
        match o.Spjg.def with
        | Spjg.Scalar e ->
            scalars := Exec.expr block e :: !scalars;
            Key (List.length !scalars - 1)
        | Spjg.Aggregate Spjg.Count_star -> Count_slot
        | Spjg.Aggregate (Spjg.Sum e) ->
            sums := { s_eval = Exec.expr block e; s_zero = false } :: !sums;
            Sum_slot (List.length !sums - 1)
        | Spjg.Aggregate (Spjg.Sum0 e) ->
            sums := { s_eval = Exec.expr block e; s_zero = true } :: !sums;
            Sum_slot (List.length !sums - 1)
        | Spjg.Aggregate (Spjg.Avg _ | Spjg.Sum_div_sum _) ->
            raise
              (Unsupported
                 (name ^ ": AVG / SUM-ratio outputs are not maintainable")))
      sp.Spjg.out
    |> Array.of_list
  in
  let key_cols =
    Array.to_list layout
    |> List.mapi (fun col s -> (col, s))
    |> List.filter_map (fun (col, s) ->
           match s with Key _ -> Some col | _ -> None)
    |> Array.of_list
  in
  {
    scalars = Array.of_list (List.rev !scalars);
    sums = Array.of_list (List.rev !sums);
    layout;
    key_cols;
    scalar_only = sp.Spjg.group_by = Some [];
  }

(* One group's running state: stored count, raw signed sums (independent
   of NULL rendering) and non-null contribution counts per SUM. The same
   record doubles as a batch-delta accumulator, where [g_count] and
   [g_nn] may go negative. *)
type group = {
  g_key : Value.t array;
  mutable g_count : int;
  g_sums : Value.t array;
  g_nn : int array;
}

(* A view's delta consumer: the SPJ outputs, or the aggregate shape and
   its group sidecar. *)
type vstate =
  | Spj_state of (Exec.tuple -> Value.t) array
  | Agg_state of agg_shape * group Value.Key.t

(* One column of a view's stored rows: its non-null values, ascending by
   [Stats.sort_order], in the first [len] slots of [vals]; the spare slots
   after them hold Null. Values are shared with the rows, never copied. *)
type sorted = { mutable vals : Value.t array; mutable len : int }

type entry = {
  view : View.t;
  block : Exec.block;  (** the view's block, compiled at attach *)
  state : vstate;
  cols : sorted array;  (** one per view column *)
  mutable dirty : bool;
}

type t = {
  db : Database.t;
  mutable entries : entry list;
  health : Mv_core.Health.t option;
      (* when present, every per-view delta application charges its wall
         time to the view's ledger account (DESIGN.md §14) *)
}

let create ?health db = { db; entries = []; health }

let database t = t.db

let attached t = List.map (fun e -> e.view) t.entries

let dirty_views t =
  List.filter_map
    (fun e -> if e.dirty then Some e.view.View.name else None)
    t.entries

let detach t name =
  t.entries <- List.filter (fun e -> e.view.View.name <> name) t.entries

(* ---- value arithmetic ------------------------------------------------- *)

(* Mirrors [Exec.add_value]: Null is the identity, Int + Int stays Int. *)
let add a b =
  match (a, b) with
  | Value.Null, v | v, Value.Null -> v
  | Value.Int x, Value.Int y -> Value.Int (x + y)
  | _ -> (
      match (Value.as_float a, Value.as_float b) with
      | Some x, Some y -> Value.Float (x +. y)
      | _ ->
          raise (Inconsistent ("Ivm: sum of non-numeric " ^ Value.to_string b)))

let neg = function
  | Value.Null -> Value.Null
  | Value.Int i -> Value.Int (-i)
  | Value.Float f -> Value.Float (-.f)
  | v -> raise (Inconsistent ("Ivm: sum of non-numeric " ^ Value.to_string v))

let is_zero = function
  | Value.Null | Value.Int 0 -> true
  | Value.Float f -> f = 0.
  | _ -> false

(* Fold one signed SPJ tuple into a group table (sidecar at attach time,
   sign +1 only; batch-delta accumulator during apply, either sign). *)
let empty_group shape key =
  {
    g_key = key;
    g_count = 0;
    g_sums = Array.make (Array.length shape.sums) Value.Null;
    g_nn = Array.make (Array.length shape.sums) 0;
  }

let fold_signed shape (groups : group Value.Key.t) b sign =
  let key = Array.map (fun f -> f b) shape.scalars in
  let g =
    match Value.Key.find_opt groups key with
    | Some g -> g
    | None ->
        let g = empty_group shape key in
        Value.Key.replace groups key g;
        g
  in
  g.g_count <- g.g_count + sign;
  Array.iteri
    (fun j spec ->
      let v = spec.s_eval b in
      if not (Value.is_null v) then begin
        g.g_nn.(j) <- g.g_nn.(j) + sign;
        g.g_sums.(j) <- add g.g_sums.(j) (if sign < 0 then neg v else v)
      end)
    shape.sums

let row_of_group shape (g : group) : Value.t array =
  Array.map
    (function
      | Key i -> g.g_key.(i)
      | Count_slot -> Value.Int g.g_count
      | Sum_slot j ->
          if g.g_nn.(j) = 0 then
            if shape.sums.(j).s_zero then Value.Int 0 else Value.Null
          else g.g_sums.(j))
    shape.layout

(* ---- sorted view columns ---------------------------------------------- *)

(* The first of slots [lo, hi) of [vals] not below [v] ([above]: above
   [v]), by binary search. *)
let search vals lo hi v ~above =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = Stats.sort_order vals.(mid) v in
    if c < 0 || (above && c = 0) then lo := mid + 1 else hi := mid
  done;
  !lo

(* Column [c]'s non-null values among [rows], ascending. *)
let column_values c rows =
  List.sort Stats.sort_order
    (List.filter_map
       (fun (r : Value.t array) ->
         if Value.is_null r.(c) then None else Some r.(c))
       rows)

(* Drop the ascending values [out] from [col] in one compacting pass that
   starts at the first removed slot. *)
let remove_sorted name col out =
  let vals = col.vals and n = col.len in
  let r = ref 0 and w = ref 0 in
  List.iter
    (fun v ->
      let p = search vals !r n v ~above:false in
      if p >= n || Stats.sort_order vals.(p) v <> 0 then
        raise
          (Inconsistent
             (name ^ ": a removed row holds a value the statistics lack"));
      if !w < !r then Array.blit vals !r vals !w (p - !r);
      w := !w + (p - !r);
      r := p + 1)
    out;
  if !w < !r then begin
    Array.blit vals !r vals !w (n - !r);
    Array.fill vals (!w + n - !r) (!r - !w) Value.Null
  end;
  col.len <- !w + n - !r

(* Merge the descending values [inn] into [col] from the top down: each
   stored value above the smallest new one moves once. *)
let insert_sorted col inn =
  let k = List.length inn in
  let need = col.len + k in
  if need > Array.length col.vals then begin
    let vals = Array.make (need + (need / 4)) Value.Null in
    Array.blit col.vals 0 vals 0 col.len;
    col.vals <- vals
  end;
  let vals = col.vals in
  let hi = ref col.len in
  List.iteri
    (fun i v ->
      (* [j] new values still go below this one *)
      let j = k - 1 - i in
      let p = search vals 0 !hi v ~above:true in
      Array.blit vals p vals (p + j + 1) (!hi - p);
      vals.(p + j) <- v;
      hi := p)
    inn;
  col.len <- need

(* Bring every column in line with the stored rows the view just lost
   ([removed], the exact rows) and gained ([added]). *)
let update_columns name cols ~removed ~added =
  Array.iteri
    (fun c col ->
      remove_sorted name col (column_values c removed);
      insert_sorted col (List.rev (column_values c added)))
    cols

(* ---- attach ----------------------------------------------------------- *)

let attach t (view : View.t) =
  let name = view.View.name in
  if List.exists (fun e -> e.view.View.name = name) t.entries then
    invalid_arg ("Ivm.attach: view " ^ name ^ " already attached");
  let tbl =
    match Database.table t.db name with
    | Some tbl -> tbl
    | None -> invalid_arg ("Ivm.attach: view " ^ name ^ " is not materialized")
  in
  let sp = View.spjg view in
  let block = Exec.compile t.db sp in
  let state =
    if Spjg.is_aggregate sp then begin
      let shape = shape_of name sp block in
      let groups = Value.Key.create 64 in
      List.iter
        (fun b -> fold_signed shape groups b 1)
        (Exec.tuples t.db block);
      (* a scalar aggregate's single row exists even over empty input *)
      if shape.scalar_only && Value.Key.length groups = 0 then
        Value.Key.replace groups [||] (empty_group shape [||]);
      Agg_state (shape, groups)
    end
    else
      Spj_state
        (Array.of_list
           (List.map
              (fun (o : Spjg.out_item) ->
                match o.Spjg.def with
                | Spjg.Scalar e -> Exec.expr block e
                | Spjg.Aggregate _ -> assert false (* SPJ block *))
              sp.Spjg.out))
  in
  let cols =
    Array.of_list
      (List.mapi
         (fun c _ ->
           let vals = Array.of_list (column_values c tbl.Table.rows) in
           { vals; len = Array.length vals })
         (Table.def_of tbl).Mv_catalog.Table_def.columns)
  in
  Exec.mark_fresh t.db view;
  t.entries <- t.entries @ [ { view; block; state; cols; dirty = false } ]

(* ---- delta evaluation ------------------------------------------------- *)

(* The signed SPJ tuple bag of the view's delta under [batch], with
   [old_rows] the pre-batch contents of every written table (the database
   already holds the post-batch state). Each telescoping term runs the
   executor over a scratch database: tables before the delta position see
   new rows, the delta position sees just the insert (or delete) slice,
   tables after it see old rows. Synthetic row-count-only statistics make
   the delta slice the smallest table so the estimated join order leads
   with it.
   The scratch database shares the live index cache, and a slice gets the
   live table's declared indexes exactly when it is physically the live
   row list (every unwritten table, and written ones before the delta
   position): an index over the live rows would serve the wrong rows to a
   delta or an old slice. *)
let signed_tuples t (entry : entry) (batch : batch)
    (old_rows : (string * Value.t array list) list) :
    (Exec.tuple * int) list =
  let tables = (View.spjg entry.view).Spjg.tables in
  let live v = (Database.table_exn t.db v).Table.rows in
  let old_of v =
    match List.assoc_opt v old_rows with Some rows -> rows | None -> live v
  in
  let acc = ref [] in
  List.iteri
    (fun i u ->
      match List.assoc_opt u batch with
      | None -> ()
      | Some d ->
          let term rows sign =
            if rows <> [] then begin
              let scratch =
                {
                  (Database.create t.db.Database.schema) with
                  Database.index_cache = t.db.Database.index_cache;
                }
              in
              let stats =
                List.mapi
                  (fun j v ->
                    let src =
                      if j = i then rows else if j < i then live v else old_of v
                    in
                    (Database.table_exn scratch v).Table.rows <- src;
                    if j <> i && src == live v then
                      Hashtbl.replace scratch.Database.declared_indexes v
                        (Database.declared_indexes t.db v);
                    (v, { Stats.row_count = List.length src; columns = [] }))
                  tables
              in
              List.iter
                (fun b -> acc := (b, sign) :: !acc)
                (Exec.tuples ~stats scratch entry.block)
            end
          in
          term d.ins 1;
          term d.del (-1))
    tables;
  !acc

(* ---- applying deltas to the stored contents --------------------------- *)

(* Each of these returns the exact stored rows the view lost and the rows
   it gained. *)
let apply_spj t (entry : entry) project signed =
  let plus = ref [] and minus = Value.Key.create 16 and n_minus = ref 0 in
  List.iter
    (fun (b, sign) ->
      let row = Array.map (fun f -> f b) project in
      if sign > 0 then plus := row :: !plus
      else begin
        let n = Option.value ~default:0 (Value.Key.find_opt minus row) in
        Value.Key.replace minus row (n + 1);
        incr n_minus
      end)
    signed;
  if !plus = [] && !n_minus = 0 then ([], [])
  else begin
    let tbl = Database.table_exn t.db entry.view.View.name in
    let removed = ref [] and pending = ref !n_minus in
    let rows' =
      if !n_minus = 0 then tbl.Table.rows
      else
        List.filter
          (fun row ->
            !pending = 0
            ||
            match Value.Key.find_opt minus row with
            | Some n when n > 0 ->
                Value.Key.replace minus row (n - 1);
                removed := row :: !removed;
                decr pending;
                false
            | _ -> true)
          tbl.Table.rows
    in
    if !pending > 0 then
      raise
        (Inconsistent
           (entry.view.View.name
          ^ ": delta deletes a row the view does not contain"));
    tbl.Table.rows <- List.rev_append !plus rows';
    bump rows_plus (List.length !plus);
    bump rows_minus !n_minus;
    (!removed, !plus)
  end

let apply_agg t (entry : entry) shape groups signed =
  let name = entry.view.View.name in
  let d = Value.Key.create 16 in
  List.iter (fun (b, sign) -> fold_signed shape d b sign) signed;
  if Value.Key.length d = 0 then ([], [])
  else begin
    let died = Value.Key.create 8 in
    let updated = Value.Key.create 8 in
    let born = ref [] in
    Value.Key.iter
      (fun k (dg : group) ->
        match Value.Key.find_opt groups k with
        | None ->
            if dg.g_count > 0 then begin
              if Array.exists (fun n -> n < 0) dg.g_nn then
                raise
                  (Inconsistent (name ^ ": negative SUM input count at birth"));
              Value.Key.replace groups k dg;
              born := dg :: !born
            end
            else if
              dg.g_count = 0
              && Array.for_all (( = ) 0) dg.g_nn
              && Array.for_all is_zero dg.g_sums
            then () (* the batch fully cancels within an unborn group *)
            else
              raise
                (Inconsistent
                   (name ^ ": delta shrinks a group the view does not have"))
        | Some g ->
            let count' = g.g_count + dg.g_count in
            if count' < 0 then
              raise (Inconsistent (name ^ ": group count went negative"));
            if count' = 0 && not shape.scalar_only then begin
              Value.Key.remove groups k;
              Value.Key.replace died k ()
            end
            else begin
              g.g_count <- count';
              Array.iteri
                (fun j _ ->
                  g.g_sums.(j) <- add g.g_sums.(j) dg.g_sums.(j);
                  g.g_nn.(j) <- g.g_nn.(j) + dg.g_nn.(j);
                  if g.g_nn.(j) < 0 then
                    raise
                      (Inconsistent (name ^ ": SUM input count went negative")))
                shape.sums;
              Value.Key.replace updated k g
            end)
      d;
    let tbl = Database.table_exn t.db name in
    let n_died = Value.Key.length died in
    let removed = ref [] and added = ref [] in
    let pending = ref (n_died + Value.Key.length updated) in
    let rows' =
      List.filter_map
        (fun row ->
          if !pending = 0 then Some row
          else
            let k = Array.map (fun c -> row.(c)) shape.key_cols in
            if Value.Key.mem died k then begin
              removed := row :: !removed;
              decr pending;
              None
            end
            else
              match Value.Key.find_opt updated k with
              | Some g ->
                  Value.Key.remove updated k;
                  let row' = row_of_group shape g in
                  removed := row :: !removed;
                  added := row' :: !added;
                  decr pending;
                  Some row'
              | None -> Some row)
        tbl.Table.rows
    in
    if !pending > 0 then
      raise
        (Inconsistent (name ^ ": stored rows diverged from the group sidecar"));
    let born_rows = List.rev_map (row_of_group shape) !born in
    tbl.Table.rows <- rows' @ born_rows;
    bump rows_plus (List.length !born);
    bump rows_minus n_died;
    bump groups_born (List.length !born);
    bump groups_died n_died;
    (!removed, List.rev_append born_rows !added)
  end

(* ---- the batch entry point ------------------------------------------- *)

(* [rows] without its first instance structurally equal to [row], as
   [Table.delete] removes it; [None] when there is none. *)
let remove_first row rows =
  let rec go acc = function
    | [] -> None
    | r :: rest ->
        if r = row then Some (List.rev_append acc rest) else go (r :: acc) rest
  in
  go [] rows

(* The contents every written table would have after the batch — each
   delta's inserts, then its deletes, in batch order, exactly as
   [Database.insert] and [Database.delete] would leave them — computed
   without writing anything, so a batch that cannot apply is rejected
   whole. *)
let post_batch_rows t (batch : batch) =
  List.iter
    (fun (name, d) ->
      if List.exists (fun e -> e.view.View.name = name) t.entries then
        invalid_batch "%s is an attached view's table" name;
      match Database.table t.db name with
      | None -> invalid_batch "unknown table %s" name
      | Some tbl ->
          let cols =
            Array.of_list (Table.def_of tbl).Mv_catalog.Table_def.columns
          in
          let arity = Array.length cols in
          if List.exists (fun r -> Array.length r <> arity) (d.ins @ d.del) then
            invalid_batch "row arity mismatch for %s" name;
          (* every inserted value fits its column: NULL only where the
             column is nullable (the matcher relies on NOT NULL), anything
             else of the column's type, an Int also in a Float column *)
          List.iter
            (Array.iteri (fun i v ->
                 let { Mv_catalog.Column.name = col; dtype; nullable } =
                   cols.(i)
                 in
                 let fits =
                   match Value.dtype_of v with
                   | None -> nullable
                   | Some Dtype.Int when Dtype.equal dtype Dtype.Float -> true
                   | Some d -> Dtype.equal d dtype
                 in
                 if not fits then
                   invalid_batch "%s does not fit %s%s column %s.%s"
                     (Value.to_string v)
                     (if nullable then "" else "NOT NULL ")
                     (Dtype.to_string dtype) name col))
            d.ins)
    batch;
  List.fold_left
    (fun acc (name, d) ->
      let rows =
        match List.assoc_opt name acc with
        | Some rows -> rows
        | None -> (Database.table_exn t.db name).Table.rows
      in
      let rows = List.fold_left (fun rows r -> r :: rows) rows d.ins in
      let rows =
        List.fold_left
          (fun rows r ->
            match remove_first r rows with
            | Some rows -> rows
            | None ->
                invalid_batch "a delete names a row %s does not hold" name)
          rows d.del
      in
      (name, rows) :: List.remove_assoc name acc)
    [] batch

let apply t (batch : batch) =
  if batch <> [] then begin
    let after = post_batch_rows t batch in
    let old_rows =
      List.map
        (fun (name, _) -> (name, (Database.table_exn t.db name).Table.rows))
        batch
    in
    List.iter
      (fun (name, rows) ->
        let tbl = Database.table_exn t.db name in
        (* a delta with no rows writes nothing *)
        if rows != tbl.Table.rows then begin
          tbl.Table.rows <- rows;
          Database.touch t.db name
        end)
      (List.rev after);
    let written = List.map fst batch in
    tick batches;
    List.iter
      (fun entry ->
        let affected =
          List.exists
            (fun tn -> Sset.mem tn entry.view.View.source_tables)
            written
        in
        if affected then begin
          let t0 = Mv_obs.Instrument.now_wall () in
          let signed = signed_tuples t entry batch old_rows in
          let removed, added =
            match entry.state with
            | Spj_state project -> apply_spj t entry project signed
            | Agg_state (shape, groups) -> apply_agg t entry shape groups signed
          in
          if removed <> [] || added <> [] then begin
            update_columns entry.view.View.name entry.cols ~removed ~added;
            Database.touch t.db entry.view.View.name;
            entry.view.View.row_count <-
              Database.row_count t.db entry.view.View.name;
            entry.dirty <- true
          end;
          tick views_updated;
          Exec.mark_fresh t.db entry.view;
          match t.health with
          | Some h ->
              Mv_core.Health.record_maintenance h
                ~wall:(Mv_obs.Instrument.now_wall () -. t0)
                entry.view.View.name
          | None -> ()
        end)
      t.entries
  end

(* A view's statistics from its maintained sorted columns: what
   [Database.table_stats] computes, without the sort. *)
let entry_stats t e : Stats.table_stats =
  let tbl = Database.table_exn t.db e.view.View.name in
  {
    Stats.row_count = Table.row_count tbl;
    columns =
      List.mapi
        (fun c (col : Mv_catalog.Column.t) ->
          ( col.Mv_catalog.Column.name,
            Stats.of_sorted e.cols.(c).vals e.cols.(c).len ))
        (Table.def_of tbl).Mv_catalog.Table_def.columns;
  }

let refresh_stats t (stats : Stats.t) : Stats.t =
  let dirty = List.filter (fun e -> e.dirty) t.entries in
  let stats' =
    List.fold_left
      (fun acc e ->
        let name = e.view.View.name in
        (name, entry_stats t e) :: List.remove_assoc name acc)
      stats dirty
  in
  List.iter (fun e -> e.dirty <- false) dirty;
  stats'
