(** A database instance: the catalog plus table contents (base tables and
    materialized views alike). *)

open Mv_base

type built = {
  b_rows : Value.t array list;  (** the row list the table was built over *)
  b_table : Value.t array Value.Key.t;
}

type builds = {
  home : (string, Table.t) Hashtbl.t;
      (** the owning database's tables: only a row list one of them holds
          is cached *)
  built : (string * int array, built) Hashtbl.t;
      (** (table, build-key positions) -> hash table over its rows *)
}

type t = {
  schema : Mv_catalog.Schema.t;
  tables : (string, Table.t) Hashtbl.t;
  declared_indexes : (string, string list list) Hashtbl.t;
      (** table -> declared index column lists *)
  index_cache : (string * string list, Index.t) Hashtbl.t;
      (** built lazily; invalidated on insert/delete *)
  build_cache : builds;
      (** hash-join build tables over whole stored row lists, built
          lazily; invalidated with the indexes *)
  epochs : (string, int) Hashtbl.t;
      (** per-table write epoch, bumped by every insert/delete batch —
          what view freshness marks are recorded against (DESIGN.md §12) *)
}

let make schema ~size ~declared_indexes =
  let tables = Hashtbl.create size in
  {
    schema;
    tables;
    declared_indexes;
    index_cache = Hashtbl.create 8;
    build_cache = { home = tables; built = Hashtbl.create 8 };
    epochs = Hashtbl.create 8;
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

(* Drop what was built over [name]'s rows: its indexes and hash tables. *)
let forget t name =
  let keep (tbl, _) x = if tbl = name then None else Some x in
  Hashtbl.filter_map_inplace keep t.index_cache;
  Hashtbl.filter_map_inplace keep t.build_cache.built

(* Register a derived table (e.g. a materialized view's contents). *)
let add_table t (tbl : Table.t) =
  forget t (Table.name tbl);
  Hashtbl.replace t.tables (Table.name tbl) tbl

let table_epoch t name =
  match Hashtbl.find_opt t.epochs name with Some e -> e | None -> 0

(* A write happened to [name]: indexes and hash tables built over it are
   stale and its write epoch advances. Also used by [Ivm] after rewriting
   a materialized view's rows in place. *)
let touch t name =
  forget t name;
  Hashtbl.replace t.epochs name (table_epoch t name + 1)

let insert t name row =
  Table.insert (table_exn t name) row;
  touch t name

let delete t name row =
  if not (Table.delete (table_exn t name) row) then
    invalid_arg ("Database.delete: no such row in " ^ name);
  touch t name

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

(* The hash table [build] makes over [rows], the whole stored row list of
   [table], keyed on the stored positions [key], and whether it was
   reused. An entry serves only the physically same list; a list no table
   of the owning database holds (an IVM delta or old slice) is built but
   neither cached nor allowed to evict the live entry. *)
let build_table t ~table ~key rows build =
  let c = t.build_cache in
  match Hashtbl.find_opt c.built (table, key) with
  | Some b when b.b_rows == rows -> (b.b_table, true)
  | _ ->
      let h = build rows in
      (match Hashtbl.find_opt c.home table with
      | Some live when live.Table.rows == rows ->
          Hashtbl.replace c.built (table, key) { b_rows = rows; b_table = h }
      | _ -> ());
      (h, false)

let row_count t name = Table.row_count (table_exn t name)

(* An independent instance with the same contents: table row lists are
   immutable values, so sharing them is safe — each copy mutates its own
   Table.t records. Declared indexes carry over; built indexes, hash
   tables and write epochs start empty. *)
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

(* Per-column statistics of one table's actual contents. *)
let table_stats (t : t) name : Mv_catalog.Stats.table_stats =
  let tbl = table_exn t name in
  let cols = tbl.Table.def.Mv_catalog.Table_def.columns in
  let col_stats =
    List.mapi
      (fun i (c : Mv_catalog.Column.t) ->
        let values = List.map (fun row -> row.(i)) tbl.Table.rows in
        (c.Mv_catalog.Column.name, Mv_catalog.Stats.build_column values))
      cols
  in
  { Mv_catalog.Stats.row_count = Table.row_count tbl; columns = col_stats }

(* Compute per-table, per-column statistics from the actual contents,
   including equi-depth histograms and exhaustive MCV lists for low-NDV
   columns (Stats.build_column) — the one-pass [Stats.of_database] hook. *)
let stats (t : t) : Mv_catalog.Stats.t =
  Hashtbl.fold
    (fun name (_ : Table.t) acc -> (name, table_stats t name) :: acc)
    t.tables []
