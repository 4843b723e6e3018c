(** Incremental view maintenance: counting-based bag deltas through SPJG
    (DESIGN.md §12). The join delta telescopes over the view's tables —

      ΔQ = Σᵢ  T1ⁿᵉʷ ⋈ … ⋈ Tᵢ₋₁ⁿᵉʷ ⋈ ΔTᵢ ⋈ Tᵢ₊₁ᵒˡᵈ ⋈ … ⋈ Tnᵒˡᵈ

    — and each term runs the view's block, compiled once at attach, through
    the ordinary executor with each table reading the right old/delta/new
    slice, with synthetic statistics that make the (tiny) delta table the
    cheapest so the estimated join order starts there; slices that are the
    live tables themselves keep their indexes, so the join probes them.
    SPJ deltas edit the view's bag directly. An aggregation view's
    contents are [Exec]'s group state, keyed by the block's grouping
    expressions: a batch's signed tuples fold into an accumulator of the
    same kind, which merges into the groups, each changed group renders
    its row, and the stored list is the groups' rows.
    A view's statistics entry is rebuilt from its contents once the stored
    rows changed since its last build pass PostgreSQL's autoanalyze
    threshold; until then the entry it has stays. A rebuild builds the
    columns the cost model has read and defers the rest. *)

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
let columns_built = counter "stats.columns_built"
let bump c n = if n <> 0 then Mv_obs.Instrument.add (c ()) n
let tick c = Mv_obs.Instrument.incr (c ())

(* ---- aggregate views -------------------------------------------------- *)

(* An aggregation view's contents: the executor's group state, each
   group holding the row the view's table stores for it. *)
type agg = {
  grouping : Exec.grouping;
  groups : Exec.group Value.Key.t;
  scalar_only : bool;  (** [group_by = Some []]: the single row never dies *)
}

(* A view's delta consumer: the SPJ outputs, or the groups. *)
type vstate =
  | Spj_state of {
      project : (Exec.tuple -> Value.t) array;  (** the block's outputs *)
      widest : int;  (** the column with the most distinct values at attach *)
    }
  | Agg_state of agg

type entry = {
  view : View.t;
  block : Exec.block;  (** the view's block, compiled at attach *)
  state : vstate;
  mutable built_rows : int;  (** stored rows at the last build *)
  mutable changed : int;  (** stored rows removed plus added since *)
}

(* PostgreSQL's autoanalyze rule with its defaults: a table is analyzed
   once the rows changed since its last analyze exceed
   autovacuum_analyze_threshold (50) plus autovacuum_analyze_scale_factor
   (0.1) times its rows
   (https://www.postgresql.org/docs/current/routine-vacuuming.html#VACUUM-FOR-STATISTICS).
   A whole count exceeds [50 + 0.1 * rows] exactly when it exceeds
   [50 + rows / 10]. *)
let analyze_threshold = 50
let analyze_divisor = 10

let due e = e.changed > analyze_threshold + (e.built_rows / analyze_divisor)

type t = {
  db : Database.t;
  mutable entries : entry list;
  health : Mv_core.Health.t option;
      (* when present, every per-view delta application charges its wall
         time to the view's ledger account (DESIGN.md §14) *)
}

let create ?health db = { db; entries = []; health }

let attached t = List.map (fun e -> e.view) t.entries

let dirty_views t =
  List.filter_map
    (fun e -> if due e then Some e.view.View.name else None)
    t.entries

let detach t name =
  t.entries <- List.filter (fun e -> e.view.View.name <> name) t.entries

(* The column with the most distinct values in an entry, the first of
   equals: the one the SPJ delete prefilter compares ([apply_spj]). *)
let widest (ts : Stats.table_stats) =
  let best = ref (0, -1) in
  List.iteri
    (fun c (_, col) ->
      let ndv = (Stats.force col).Stats.ndv in
      if ndv > snd !best then best := (c, ndv))
    ts.Stats.columns;
  fst !best

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
    match Exec.output block with
    | Exec.Group grouping ->
        (* a grouped block's [group_by] is [Some] *)
        let by = Option.get sp.Spjg.group_by in
        let groups = Exec.groups grouping (Exec.tuples t.db block) in
        (* each stored row is linked to its group, found through the
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
        let mismatch () =
          raise (Inconsistent (name ^ ": stored rows are not one per group"))
        in
        List.iter
          (fun row ->
            match
              Value.Key.find_opt groups (Array.map (fun c -> row.(c)) key_cols)
            with
            | Some g when Array.length g.Exec.row = 0 -> g.Exec.row <- row
            | _ -> mismatch ())
          tbl.Table.rows;
        if
          List.compare_length_with tbl.Table.rows (Value.Key.length groups)
          <> 0
        then mismatch ();
        Agg_state { grouping; groups; scalar_only = (by = []) }
    | Exec.Project project ->
        Spj_state { project; widest = widest (Database.table_stats t.db name) }
  in
  let e =
    { view; block; state; built_rows = Table.row_count tbl; changed = 0 }
  in
  t.entries <- t.entries @ [ e ]

(* ---- delta evaluation ------------------------------------------------- *)

(* The signed SPJ tuple bag of the view's delta under [batch], with
   [live v] table [v]'s post-batch rows (the database already holds the
   post-batch state) and [old v] its pre-batch rows, each with its row
   count. Each telescoping term runs the executor with each table reading
   its slice: tables before the delta position read new rows, the delta
   position just the insert (or delete) slice, tables after it old rows.
   Synthetic row-count-only statistics let the estimated join order lead
   with the delta slice, which is usually the smallest table. A slice
   that is physically the live row list (every unwritten table, and
   written ones before the delta position) keeps the live declared
   indexes and cached hash tables; a delta or an old slice is scanned and
   hashed on its own ([Exec.tuples]). *)
let signed_tuples t (entry : entry) (batch : batch) ~live ~old :
    (Exec.tuple * int) list =
  let tables = (View.spjg entry.view).Spjg.tables in
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
                    ( v,
                      if j = i then (rows, List.length rows)
                      else if j < i then live v
                      else old v ))
                  tables
              in
              let stats =
                List.fold_left
                  (fun acc (v, (_, n)) ->
                    Stats.add v { Stats.row_count = n; columns = [] } acc)
                  Stats.empty slices
              in
              List.iter
                (fun b -> acc := (b, sign) :: !acc)
                (Exec.tuples ~stats
                   ~rows:(fun v -> fst (List.assoc v slices))
                   t.db entry.block)
            end
          in
          term d.ins 1;
          term d.del (-1))
    tables;
  !acc

(* ---- applying deltas to the stored contents --------------------------- *)

(* Each of these returns how many stored rows the view lost plus how many
   it gained. *)
let apply_spj t (entry : entry) ~project ~widest signed =
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
  if !plus = [] && !n_minus = 0 then 0
  else begin
    let name = entry.view.View.name in
    let tbl = Database.table_exn t.db name in
    let rows' =
      if !n_minus = 0 then tbl.Table.rows
      else begin
        (* A stored row reaches the full-row lookup only when its value in
           the widest column is one a deleted row holds; the first
           matching instances in list order go. *)
        let c = widest in
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
        let drop row =
          let v = row.(c) in
          let p =
            Stats.search ~cmp:Value.order vals 0 (Array.length vals) v
              ~above:false
          in
          p < Array.length vals
          && Value.order vals.(p) v = 0
          &&
          match Value.Key.find_opt counts row with
          | Some n when n > 0 ->
              Value.Key.replace counts row (n - 1);
              true
          | _ -> false
        in
        match Table.edit_rows drop !n_minus tbl.Table.rows with
        | Some rows -> rows
        | None ->
            raise
              (Inconsistent
                 (name ^ ": delta deletes a row the view does not contain"))
      end
    in
    tbl.Table.rows <- List.rev_append !plus rows';
    let n_plus = List.length !plus in
    bump rows_plus n_plus;
    bump rows_minus !n_minus;
    n_plus + !n_minus
  end

(* The batch merged into the groups: a born or changed group renders
   its row, and when any group was born, died or changed, the stored list
   becomes the groups' rows, in the group table's order. *)
let apply_agg t (entry : entry) agg signed =
  let name = entry.view.View.name in
  let d = Value.Key.create 16 in
  List.iter (fun (b, sign) -> Exec.fold agg.grouping d b sign) signed;
  let n_born = ref 0 and n_died = ref 0 and n_changed = ref 0 in
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
            incr n_born
          end
          else if not (Exec.cancelled dg) then
            (* only a delta that cancels may reach an unborn group *)
            raise
              (Inconsistent
                 (name ^ ": delta shrinks a group the view does not have"))
      | Some g ->
          let count' = g.count + dg.count in
          if count' < 0 then
            raise (Inconsistent (name ^ ": group count went negative"));
          if count' = 0 && not agg.scalar_only then begin
            Value.Key.remove agg.groups k;
            incr n_died
          end
          else begin
            Exec.merge ~into:g dg;
            if negative g then
              raise (Inconsistent (name ^ ": SUM input count went negative"));
            g.row <- Exec.render agg.grouping g;
            incr n_changed
          end)
    d;
  let n_born = !n_born and n_died = !n_died and n_changed = !n_changed in
  if n_born + n_died + n_changed > 0 then
    (Database.table_exn t.db name).Table.rows <-
      Value.Key.fold
        (fun _ (g : Exec.group) rows -> g.row :: rows)
        agg.groups [];
  bump rows_plus n_born;
  bump rows_minus n_died;
  bump groups_born n_born;
  bump groups_died n_died;
  (* a changed group's row counts as removed and added *)
  n_born + n_died + (2 * n_changed)

(* ---- the batch entry point ------------------------------------------- *)

(* [f v], computed at the first call for each table name [v]. *)
let once f =
  let seen = Hashtbl.create 8 in
  fun v ->
    match Hashtbl.find_opt seen v with
    | Some r -> r
    | None ->
        let r = f v in
        Hashtbl.add seen v r;
        r

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
    (* each slice a delta term reads, with its row count counted once per
       batch: no view reads a view, so the live lists stay as the write
       left them while the views are updated *)
    let sized rows = (rows, List.length rows) in
    let live = once (fun v -> sized (Database.table_exn t.db v).Table.rows) in
    let old =
      once (fun v ->
          match List.assoc_opt v old_rows with
          | Some rows -> sized rows
          | None -> live v)
    in
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
          let signed = signed_tuples t entry batch ~live ~old in
          let changed =
            match entry.state with
            | Spj_state { project; widest } ->
                apply_spj t entry ~project ~widest signed
            | Agg_state agg -> apply_agg t entry agg signed
          in
          if changed > 0 then begin
            Database.touch t.db entry.view.View.name;
            entry.view.View.row_count <-
              Database.row_count t.db entry.view.View.name;
            entry.changed <- entry.changed + changed
          end;
          tick views_updated;
          match t.health with
          | Some h ->
              Mv_core.Health.record_maintenance h
                ~wall:(Mv_obs.Instrument.now_wall () -. t0)
                entry.view.View.name
          | None -> ()
        end)
      t.entries
  end

(* A due view's entry rebuilt on the demand its entry in [stats] showed:
   the columns the cost model read are built now, the rest deferred to
   their first read. The rebuild resets the view's change count. *)
let refresh_stats t (stats : Stats.t) : Stats.t =
  List.fold_left
    (fun acc e ->
      if not (due e) then acc
      else
        let name = e.view.View.name in
        let ts = Database.rebuild_stats t.db name (Stats.table acc name) in
        bump columns_built
          (List.length
             (List.filter (fun (_, c) -> Stats.is_built c) ts.Stats.columns));
        e.built_rows <- ts.Stats.row_count;
        e.changed <- 0;
        Stats.add name ts acc)
    stats t.entries
