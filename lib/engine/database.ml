(** A database instance: the catalog plus table contents (base tables and
    materialized views alike). *)

open Mv_base

type built = {
  b_rows : Value.t array list;  (** the row list the table was built over *)
  b_table : Value.t array Value.Key.t;
}

type delta = { ins : Value.t array list; del : Value.t array list }

type batch = (string * delta) list

exception Invalid_batch of string

type t = {
  schema : Mv_catalog.Schema.t;
  tables : (string, Table.t) Hashtbl.t;
  declared_indexes : (string, string list list) Hashtbl.t;
      (** table -> declared index column lists *)
  index_cache : (string * string list, Index.t) Hashtbl.t;
      (** built lazily; dropped when the table is written *)
  build_cache : (string * int array, built) Hashtbl.t;
      (** (table, build-key positions) -> hash table over the table's
          current row list, built lazily; dropped with the indexes *)
}

let make schema ~size ~declared_indexes =
  {
    schema;
    tables = Hashtbl.create size;
    declared_indexes;
    index_cache = Hashtbl.create 8;
    build_cache = Hashtbl.create 8;
  }

let create schema =
  let db = make schema ~size:16 ~declared_indexes:(Hashtbl.create 8) in
  List.iter
    (fun (td : Mv_catalog.Table_def.t) ->
      Hashtbl.replace db.tables td.Mv_catalog.Table_def.name (Table.create td))
    schema.Mv_catalog.Schema.tables;
  db

let table t name : Table.t option = Hashtbl.find_opt t.tables name

let table_exn t name =
  match table t name with
  | Some tbl -> tbl
  | None -> invalid_arg ("Database.table: unknown table " ^ name)

(* The table's rows changed: drop the indexes and hash tables built over
   them. *)
let touch t name =
  let keep (tbl, _) x = if tbl = name then None else Some x in
  Hashtbl.filter_map_inplace keep t.index_cache;
  Hashtbl.filter_map_inplace keep t.build_cache

(* Register a derived table (e.g. a materialized view's contents). *)
let add_table t (tbl : Table.t) =
  touch t (Table.name tbl);
  Hashtbl.replace t.tables (Table.name tbl) tbl

let invalid_batch fmt =
  Fmt.kstr (fun s -> raise (Invalid_batch ("Database.write: " ^ s))) fmt

(* Every inserted value fits its column: NULL only where the column is
   nullable (the matcher relies on NOT NULL), anything else of the
   column's type, an Int also in a Float column. *)
let check_fit name (cols : Mv_catalog.Column.t array) row =
  Array.iteri
    (fun i v ->
      let { Mv_catalog.Column.name = col; dtype; nullable } = cols.(i) in
      let fits =
        match Value.dtype_of v with
        | None -> nullable
        | Some Dtype.Int when Dtype.equal dtype Dtype.Float -> true
        | Some d -> Dtype.equal d dtype
      in
      if not fits then
        invalid_batch "%s does not fit %s%s column %s.%s" (Value.to_string v)
          (if nullable then "" else "NOT NULL ")
          (Dtype.to_string dtype) name col)
    row

(* Whether one of [rows] is structurally equal to [r], and [rows]
   without the first that is. *)
let rec holds r = function [] -> false | x :: rest -> x = r || holds r rest

let rec without r = function
  | [] -> []
  | x :: rest -> if x = r then rest else x :: without r rest

(* The rows [name] holds after [d]: its inserts consed on in order, then
   each delete removing the first row structurally equal to it — in one
   walk for all of them, leaving the list deleting them one by one
   would. *)
let rows_after name (tbl : Table.t) d =
  let rows = List.rev_append d.ins tbl.Table.rows in
  let pending = ref d.del in
  let drop r =
    let held = holds r !pending in
    if held then pending := without r !pending;
    held
  in
  match Table.edit_rows drop (List.length d.del) rows with
  | Some rows -> rows
  | None -> invalid_batch "a delete names a row %s does not hold" name

let write t (batch : batch) =
  let rec check seen = function
    | [] -> ()
    | (name, d) :: rest ->
        if List.mem name seen then invalid_batch "%s is named twice" name;
        (match table t name with
        | None -> invalid_batch "unknown table %s" name
        | Some tbl ->
            let cols =
              Array.of_list (Table.def_of tbl).Mv_catalog.Table_def.columns
            in
            let arity = Array.length cols in
            let wrong r = Array.length r <> arity in
            if List.exists wrong d.ins || List.exists wrong d.del then
              invalid_batch "row arity mismatch for %s" name;
            List.iter (check_fit name cols) d.ins);
        check (name :: seen) rest
  in
  check [] batch;
  (* every list is computed before any is written: a delete that cannot
     apply rejects the whole batch *)
  let after =
    List.filter_map
      (fun (name, d) ->
        if d.ins = [] && d.del = [] then None
        else
          let tbl = table_exn t name in
          Some (tbl, rows_after name tbl d))
      batch
  in
  List.iter
    (fun ((tbl : Table.t), rows) ->
      tbl.Table.rows <- rows;
      touch t (Table.name tbl))
    after

(* Declare a (secondary) index; it is built lazily on first use. *)
let declare_index t ~table ~cols =
  let td = Table.def_of (table_exn t table) in
  List.iter
    (fun c ->
      if not (Mv_catalog.Table_def.has_column td c) then
        invalid_arg ("Database.declare_index: no column " ^ c))
    cols;
  let cur =
    match Hashtbl.find_opt t.declared_indexes table with
    | Some l -> l
    | None -> []
  in
  if not (List.mem cols cur) then
    Hashtbl.replace t.declared_indexes table (cols :: cur)

let declared_indexes t table =
  match Hashtbl.find_opt t.declared_indexes table with
  | Some l -> l
  | None -> []

(* Fetch (building if needed) the index on (table, cols). *)
let index t ~table ~cols : Index.t option =
  if not (List.mem cols (declared_indexes t table)) then None
  else
    match Hashtbl.find_opt t.index_cache (table, cols) with
    | Some ix -> Some ix
    | None ->
        let ix = Index.build (table_exn t table) cols in
        Hashtbl.replace t.index_cache (table, cols) ix;
        Some ix

(* The hash table [build] makes over [rows], the current row list of
   [table], keyed on the stored positions [key], and whether it was
   reused. An entry serves only the physically same list. *)
let build_table t ~table ~key rows build =
  match Hashtbl.find_opt t.build_cache (table, key) with
  | Some b when b.b_rows == rows -> (b.b_table, true)
  | _ ->
      let h = build rows in
      Hashtbl.replace t.build_cache (table, key) { b_rows = rows; b_table = h };
      (h, false)

let row_count t name = Table.row_count (table_exn t name)

(* An independent instance with the same contents: table row lists are
   immutable values, so sharing them is safe — each copy mutates its own
   Table.t records. Declared indexes carry over; built indexes and hash
   tables start empty. *)
let copy (t : t) : t =
  let c =
    make t.schema ~size:(Hashtbl.length t.tables)
      ~declared_indexes:(Hashtbl.copy t.declared_indexes)
  in
  Hashtbl.iter
    (fun name (tbl : Table.t) ->
      Hashtbl.replace c.tables name
        (Table.of_rows (Table.def_of tbl) tbl.Table.rows))
    t.tables;
  c

(* The statistics of column [i] of the rows [tbl] holds when it runs. A
   deferred column keeps this closure, which holds the table, never a row
   list: a list it captured would keep rows that later writes drop
   alive. *)
let column_stats (tbl : Table.t) i () =
  Mv_catalog.Stats.build_column (List.map (fun row -> row.(i)) tbl.Table.rows)

let builders (tbl : Table.t) =
  List.mapi
    (fun i (c : Mv_catalog.Column.t) ->
      (c.Mv_catalog.Column.name, column_stats tbl i))
    tbl.Table.def.Mv_catalog.Table_def.columns

(* Per-column statistics of one table's actual contents, every column
   built. *)
let table_stats (t : t) name : Mv_catalog.Stats.table_stats =
  let tbl = table_exn t name in
  {
    Mv_catalog.Stats.row_count = Table.row_count tbl;
    columns =
      List.map
        (fun (name, build) -> (name, Mv_catalog.Stats.built (build ())))
        (builders tbl);
  }

let rebuild_stats (t : t) name prev : Mv_catalog.Stats.table_stats =
  let tbl = table_exn t name in
  Mv_catalog.Stats.rebuild prev ~row_count:(Table.row_count tbl) (builders tbl)

(* Compute per-table, per-column statistics from the actual contents,
   including equi-depth histograms and exhaustive MCV lists for low-NDV
   columns (Stats.build_column) — the one-pass [Stats.of_database] hook. *)
let stats (t : t) : Mv_catalog.Stats.t =
  Hashtbl.fold
    (fun name (_ : Table.t) acc ->
      Mv_catalog.Stats.add name (table_stats t name) acc)
    t.tables Mv_catalog.Stats.empty
