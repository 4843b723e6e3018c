(** The catalog: table definitions plus foreign keys, with the lookups the
    matching algorithm and name resolution need. *)

open Mv_base

type t = {
  tables : Table_def.t list;
  foreign_keys : Foreign_key.t list;
}

exception Schema_error of string

let schema_error fmt = Fmt.kstr (fun s -> raise (Schema_error s)) fmt

let make ~tables ~foreign_keys = { tables; foreign_keys }

let find_table t name =
  List.find_opt (fun td -> td.Table_def.name = name) t.tables

let table_exn t name =
  match find_table t name with
  | Some td -> td
  | None -> schema_error "unknown table %s" name

(* Resolve an unqualified column name against a set of in-scope tables.
   Fails when ambiguous or absent. *)
let resolve_column t ~tables name =
  let hits =
    List.filter
      (fun tbl -> Table_def.has_column (table_exn t tbl) name)
      tables
  in
  match hits with
  | [ tbl ] -> Some (Col.make tbl name)
  | [] -> None
  | _ :: _ :: _ -> schema_error "ambiguous column %s" name

let column_def t (c : Col.t) =
  match find_table t c.Col.tbl with
  | None -> None
  | Some td -> Table_def.find_column td c.Col.col

let column_def_exn t c =
  match column_def t c with
  | Some cd -> cd
  | None -> schema_error "unknown column %s" (Col.to_string c)

let column_nullable t c = (column_def_exn t c).Column.nullable

let reads_nullable t e = List.exists (column_nullable t) (Expr.columns e)

let column_dtype t c = (column_def_exn t c).Column.dtype

(* CHECK constraints (as CNF conjuncts) of all [tables]. *)
let checks_for t tables =
  List.concat_map
    (fun tbl -> (table_exn t tbl).Table_def.checks)
    tables

(* Foreign keys whose source table is [tbl]. *)
let fks_from t tbl =
  List.filter (fun fk -> fk.Foreign_key.from_tbl = tbl) t.foreign_keys

let fks_to t tbl =
  List.filter (fun fk -> fk.Foreign_key.to_tbl = tbl) t.foreign_keys

(* Sanity checks: FK targets exist and reference a unique key; PK columns
   exist and are not nullable. Raises [Schema_error] on violation. *)
let validate t =
  List.iter
    (fun td ->
      List.iter
        (fun k ->
          match Table_def.find_column td k with
          | None ->
              schema_error "pk column %s.%s does not exist" td.Table_def.name k
          | Some cd ->
              if cd.Column.nullable then
                schema_error "pk column %s.%s is nullable" td.Table_def.name k)
        td.Table_def.primary_key;
      List.iter
        (fun check ->
          List.iter
            (fun (c : Col.t) ->
              if c.Col.tbl <> td.Table_def.name then
                schema_error "check on %s references foreign table %s"
                  td.Table_def.name c.Col.tbl;
              if not (Table_def.has_column td c.Col.col) then
                schema_error "check on %s references unknown column %s"
                  td.Table_def.name c.Col.col)
            (Mv_base.Pred.columns check))
        td.Table_def.checks)
    t.tables;
  List.iter
    (fun fk ->
      let src = table_exn t fk.Foreign_key.from_tbl in
      let dst = table_exn t fk.Foreign_key.to_tbl in
      List.iter
        (fun c ->
          if not (Table_def.has_column src c) then
            schema_error "fk source column %s.%s missing" src.Table_def.name c)
        fk.Foreign_key.from_cols;
      List.iter
        (fun c ->
          if not (Table_def.has_column dst c) then
            schema_error "fk target column %s.%s missing" dst.Table_def.name c)
        fk.Foreign_key.to_cols;
      if not (Table_def.is_unique_key dst fk.Foreign_key.to_cols) then
        schema_error "fk target %s(%s) is not a unique key"
          dst.Table_def.name
          (String.concat "," fk.Foreign_key.to_cols))
    t.foreign_keys
