(** Incremental view maintenance: counting-based bag deltas through SPJG
    (DESIGN.md §12). The join delta telescopes over the view's tables —

      ΔQ = Σᵢ  T1ⁿᵉʷ ⋈ … ⋈ Tᵢ₋₁ⁿᵉʷ ⋈ ΔTᵢ ⋈ Tᵢ₊₁ᵒˡᵈ ⋈ … ⋈ Tnᵒˡᵈ

    — and each term runs the view's block, compiled once at attach, through
    the ordinary executor with each table reading the right old/delta/new
    slice, with synthetic statistics that make the (tiny) delta table the
    cheapest so the estimated join order starts there; slices that are the
    live tables themselves keep their indexes, so the join probes them.
    SPJ deltas edit the view's bag directly. An aggregation view's groups
    are [Exec]'s group state, keyed by the block's grouping expressions:
    a batch's signed tuples fold into an accumulator of the same kind,
    which merges into the groups, and this module keeps only what
    maintenance adds: births, deaths and the stored row each group owns.
    Each view column's sorted non-null values and distinct count follow
    the exact rows a batch adds and removes, so statistics refresh without
    re-sorting. *)

open Mv_base
module Spjg = Mv_relalg.Spjg
module Stats = Mv_catalog.Stats
module View = Mv_core.View
module Sset = Mv_util.Sset

type delta = Database.delta = {
  ins : Value.t array list;
  del : Value.t array list;
}

type batch = Database.batch

(* UPDATE as delete+insert sugar: the bag difference of the before/after
   rows, in pair order. *)
let updates pairs =
  {
    del = List.map fst pairs;
    ins = List.map snd pairs;
  }

exception Unsupported of string

exception Inconsistent of string

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

(* ---- aggregate views -------------------------------------------------- *)

(* An aggregation view's groups, in the executor's group state, each
   owning the row the view's table stores for it. *)
type agg = {
  grouping : Exec.grouping;
  groups : Exec.group Value.Key.t;
  scalar_only : bool;  (** [group_by = Some []]: the single row never dies *)
}

(* A view's delta consumer: the SPJ outputs, or the groups. *)
type vstate = Spj_state of (Exec.tuple -> Value.t) array | Agg_state of agg

(* One column of a view's stored rows: its non-null values, ascending by
   [Stats.sort_order], in the first [len] slots of [vals]; the spare slots
   after them hold Null. Values are shared with the rows, never copied.
   [ndv] counts their distinct values ([Stats.distinct]). *)
type sorted = {
  mutable vals : Value.t array;
  mutable len : int;
  mutable ndv : int;
}

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

(* ---- sorted view columns ---------------------------------------------- *)

(* Column [c]'s non-null values among [rows], ascending. *)
let column_values c rows =
  Stats.sorted_values (List.map (fun (r : Value.t array) -> r.(c)) rows)

(* Values [Value.order] calls equal (an [Int] and the numerically equal
   [Float] among them) form one run of a column, and [ndv] counts the
   runs. The slot that places a removed or added value lies in or beside
   its run, so the slots around it tell whether the run empties or is
   new, with no search of its own. *)

(* Drop the ascending values [out] from [col] in one compacting pass that
   starts at the first removed slot; returns how many runs it empties.
   The removed values of one run empty it when they took every slot from
   their first to their last and the slots on either side hold other
   runs. Both sides are read as they were: slots from [r] on have not
   moved yet, and the slot before [r] is the previous removed one, which
   no blit writes. *)
let remove_sorted name col out =
  let vals = col.vals and n = col.len in
  let r = ref 0 and w = ref 0 and emptied = ref 0 in
  (* the current run's removed values: the first, their first and last
     slots, how many, and whether a kept value of the run lies below
     them or above the last *)
  let g_v = ref Value.Null and g_first = ref 0 and g_last = ref 0 in
  let g_n = ref 0 and kept_below = ref false and kept_above = ref false in
  let close () =
    if
      !g_n > 0 && (not !kept_below) && (not !kept_above)
      && !g_last - !g_first + 1 = !g_n
    then incr emptied
  in
  List.iter
    (fun v ->
      let p = Stats.search ~cmp:Stats.sort_order vals !r n v ~above:false in
      if p >= n || Stats.sort_order vals.(p) v <> 0 then
        raise
          (Inconsistent
             (name ^ ": a removed row holds a value the statistics lack"));
      if !g_n = 0 || Value.order !g_v v <> 0 then begin
        close ();
        g_v := v;
        g_first := p;
        g_n := 0;
        kept_below := p > 0 && Value.order vals.(p - 1) v = 0
      end;
      incr g_n;
      g_last := p;
      kept_above := p + 1 < n && Value.order vals.(p + 1) v = 0;
      if !w < !r then Array.blit vals !r vals !w (p - !r);
      w := !w + (p - !r);
      r := p + 1)
    out;
  close ();
  if !w < !r then begin
    Array.blit vals !r vals !w (n - !r);
    Array.fill vals (!w + n - !r) (!r - !w) Value.Null
  end;
  col.len <- !w + n - !r;
  !emptied

(* Merge the descending values [inn] into [col] from the top down: each
   stored value above the smallest new one moves once. Returns how many
   runs it starts: the first new value of a run starts one when neither
   stored slot beside its place holds the run. Both are as they were:
   the merge has moved only slots from [hi] on, and the stored value at
   [hi] ranks above a larger new value of another run, so it is never in
   this one. *)
let insert_sorted col inn =
  let k = List.length inn in
  let need = col.len + k in
  if need > Array.length col.vals then begin
    let vals = Array.make (need + (need / 4)) Value.Null in
    Array.blit col.vals 0 vals 0 col.len;
    col.vals <- vals
  end;
  let vals = col.vals in
  let hi = ref col.len and started = ref 0 and prev = ref Value.Null in
  List.iteri
    (fun i v ->
      (* [j] new values still go below this one *)
      let j = k - 1 - i in
      let p = Stats.search ~cmp:Stats.sort_order vals 0 !hi v ~above:true in
      if
        (i = 0 || Value.order !prev v <> 0)
        && not
             ((p > 0 && Value.order vals.(p - 1) v = 0)
             || (p < !hi && Value.order vals.(p) v = 0))
      then incr started;
      prev := v;
      Array.blit vals p vals (p + j + 1) (!hi - p);
      vals.(p + j) <- v;
      hi := p)
    inn;
  col.len <- need;
  !started

(* Bring every column and its run count in line with the stored rows the
   view just lost ([removed], the exact rows) and gained ([added]). *)
let update_columns name cols ~removed ~added =
  Array.iteri
    (fun c col ->
      let emptied = remove_sorted name col (column_values c removed) in
      let started = insert_sorted col (List.rev (column_values c added)) in
      col.ndv <- col.ndv - emptied + started)
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
  (match Spjg.check_indexable sp with
  | Ok () -> ()
  | Error e -> raise (Unsupported (name ^ ": " ^ e)));
  let block = Exec.compile t.db sp in
  let state =
    match (Exec.grouping block, sp.Spjg.group_by) with
    | Some grouping, Some by ->
        let groups = Exec.groups grouping (Exec.tuples t.db block) in
        (* each group owns its stored row from here on, found through the
           stored column of each grouping expression (an indexable view
           outputs every one): the one time a stored row's key is built *)
        let key_cols =
          Array.of_list
            (List.map
               (fun g ->
                 Option.get
                   (List.find_index
                      (fun (o : Spjg.out_item) ->
                        match o.Spjg.def with
                        | Spjg.Scalar e -> Expr.equal e g
                        | Spjg.Aggregate _ -> false)
                      sp.Spjg.out))
               by)
        in
        List.iter
          (fun row ->
            match
              Value.Key.find_opt groups (Array.map (fun c -> row.(c)) key_cols)
            with
            | Some g -> g.Exec.row <- row
            | None -> ())
          tbl.Table.rows;
        Agg_state { grouping; groups; scalar_only = (by = []) }
    | _ ->
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
           let len = Array.length vals in
           { vals; len; ndv = Stats.distinct vals len })
         (Table.def_of tbl).Mv_catalog.Table_def.columns)
  in
  View.mark_fresh view;
  t.entries <- t.entries @ [ { view; block; state; cols; dirty = false } ]

(* ---- delta evaluation ------------------------------------------------- *)

(* The signed SPJ tuple bag of the view's delta under [batch], with
   [old_rows] the pre-batch contents of every written table (the database
   already holds the post-batch state). Each telescoping term runs the
   executor with each table reading its slice: tables before the delta
   position read new rows, the delta position just the insert (or delete)
   slice, tables after it old rows. Synthetic row-count-only statistics
   let the estimated join order lead with the delta slice, which is
   usually the smallest table. A slice that is physically the live row
   list (every unwritten table, and written ones before the delta
   position) keeps the live declared indexes and cached hash tables; a
   delta or an old slice is scanned and hashed on its own
   ([Exec.tuples]). *)
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
              let slices =
                List.mapi
                  (fun j v ->
                    (v, if j = i then rows else if j < i then live v else old_of v))
                  tables
              in
              let stats =
                List.map
                  (fun (v, src) ->
                    (v, { Stats.row_count = List.length src; columns = [] }))
                  slices
              in
              List.iter
                (fun b -> acc := (b, sign) :: !acc)
                (Exec.tuples ~stats
                   ~rows:(fun v -> List.assoc v slices)
                   t.db entry.block)
            end
          in
          term d.ins 1;
          term d.del (-1))
    tables;
  !acc

(* ---- applying deltas to the stored contents --------------------------- *)

(* The column with the most distinct values (the first of equals). *)
let widest cols =
  let best = ref 0 in
  Array.iteri (fun c col -> if col.ndv > cols.(!best).ndv then best := c) cols;
  !best

(* Each of these returns the exact stored rows the view lost and the rows
   it gained. *)
let apply_spj t (entry : entry) project signed =
  let plus = ref [] and minus = ref [] and n_minus = ref 0 in
  List.iter
    (fun (b, sign) ->
      let row = Array.map (fun f -> f b) project in
      if sign > 0 then plus := row :: !plus
      else begin
        minus := row :: !minus;
        incr n_minus
      end)
    signed;
  if !plus = [] && !n_minus = 0 then ([], [])
  else begin
    let name = entry.view.View.name in
    let tbl = Database.table_exn t.db name in
    let removed = ref [] in
    let rows' =
      if !n_minus = 0 then tbl.Table.rows
      else begin
        (* A stored row reaches the full-row lookup only when its value in
           the widest column is one a deleted row holds; the first
           matching instances in list order go. *)
        let c = widest entry.cols in
        let vals =
          Array.of_list
            (List.sort_uniq Value.order (List.map (fun r -> r.(c)) !minus))
        in
        let counts = Value.Key.create 16 in
        List.iter
          (fun row ->
            Value.Key.replace counts row
              (1 + Option.value ~default:0 (Value.Key.find_opt counts row)))
          !minus;
        let edit row =
          let v = row.(c) in
          let p =
            Stats.search ~cmp:Value.order vals 0 (Array.length vals) v
              ~above:false
          in
          if p = Array.length vals || Value.order vals.(p) v <> 0 then Table.Keep
          else
            match Value.Key.find_opt counts row with
            | Some n when n > 0 ->
                Value.Key.replace counts row (n - 1);
                removed := row :: !removed;
                Table.Drop
            | _ -> Table.Keep
        in
        match Table.edit_rows edit !n_minus tbl.Table.rows with
        | Some rows -> rows
        | None ->
            raise
              (Inconsistent
                 (name ^ ": delta deletes a row the view does not contain"))
      end
    in
    tbl.Table.rows <- List.rev_append !plus rows';
    bump rows_plus (List.length !plus);
    bump rows_minus !n_minus;
    (!removed, !plus)
  end

let apply_agg t (entry : entry) agg signed =
  let name = entry.view.View.name in
  let d = Value.Key.create 16 in
  List.iter (fun (b, sign) -> Exec.fold agg.grouping d b sign) signed;
  if Value.Key.length d = 0 then ([], [])
  else begin
    (* the stored rows of the groups that die ([None]) or change (their
       new row), and the rows of the groups born *)
    let touched = ref [] and born = ref [] and n_died = ref 0 in
    let negative (g : Exec.group) = Array.exists (fun n -> n < 0) g.nonnull in
    Value.Key.iter
      (fun k (dg : Exec.group) ->
        match Value.Key.find_opt agg.groups k with
        | None ->
            if dg.count > 0 then begin
              if negative dg then
                raise
                  (Inconsistent (name ^ ": negative SUM input count at birth"));
              dg.row <- Exec.render agg.grouping dg;
              Value.Key.replace agg.groups k dg;
              born := dg.row :: !born
            end
            else if Exec.cancelled dg then
              () (* the batch fully cancels within an unborn group *)
            else
              raise
                (Inconsistent
                   (name ^ ": delta shrinks a group the view does not have"))
        | Some g ->
            let count' = g.count + dg.count in
            if count' < 0 then
              raise (Inconsistent (name ^ ": group count went negative"));
            if count' = 0 && not agg.scalar_only then begin
              Value.Key.remove agg.groups k;
              incr n_died;
              touched := (g.row, None) :: !touched
            end
            else begin
              Exec.merge ~into:g dg;
              if negative g then
                raise (Inconsistent (name ^ ": SUM input count went negative"));
              let row' = Exec.render agg.grouping g in
              touched := (g.row, Some row') :: !touched;
              g.row <- row'
            end)
      d;
    (* one walk finds the touched rows by physical identity *)
    let olds = Array.of_list (List.map fst !touched) in
    let news = Array.of_list (List.map snd !touched) in
    let live = ref (Array.length olds) in
    let removed = ref [] and added = ref [] in
    let edit row =
      let j = ref 0 in
      while !j < !live && olds.(!j) != row do
        incr j
      done;
      if !j = !live then Table.Keep
      else begin
        let row' = news.(!j) in
        decr live;
        olds.(!j) <- olds.(!live);
        news.(!j) <- news.(!live);
        removed := row :: !removed;
        match row' with
        | Some r ->
            added := r :: !added;
            Table.Swap r
        | None -> Table.Drop
      end
    in
    let tbl = Database.table_exn t.db name in
    let rows' =
      match Table.edit_rows edit (Array.length olds) tbl.Table.rows with
      | Some rows -> rows
      | None ->
          raise
            (Inconsistent
               (name ^ ": stored rows diverged from the group sidecar"))
    in
    tbl.Table.rows <- List.rev_append !born rows';
    let n_born = List.length !born in
    bump rows_plus n_born;
    bump rows_minus !n_died;
    bump groups_born n_born;
    bump groups_died !n_died;
    (!removed, List.rev_append !born !added)
  end

(* ---- the batch entry point ------------------------------------------- *)

let apply t (batch : batch) =
  List.iter
    (fun (name, _) ->
      if List.exists (fun e -> e.view.View.name = name) t.entries then
        raise
          (Database.Invalid_batch
             ("Ivm.apply: " ^ name ^ " is an attached view's table")))
    batch;
  (* the pre-batch lists of the tables [write] replaces; it rejects an
     unknown one *)
  let old_rows =
    List.filter_map
      (fun (name, _) ->
        Option.map (fun tbl -> (name, tbl.Table.rows)) (Database.table t.db name))
      batch
  in
  Database.write t.db batch;
  if batch <> [] then begin
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
            | Agg_state agg -> apply_agg t entry agg signed
          in
          if removed <> [] || added <> [] then begin
            update_columns entry.view.View.name entry.cols ~removed ~added;
            Database.touch t.db entry.view.View.name;
            entry.view.View.row_count <-
              Database.row_count t.db entry.view.View.name;
            entry.dirty <- true
          end;
          tick views_updated;
          View.mark_fresh entry.view;
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
          let s = e.cols.(c) in
          ( col.Mv_catalog.Column.name,
            Stats.of_sorted ~ndv:s.ndv s.vals s.len ))
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
