(** An in-memory base table: definition plus rows (arrays ordered like the
    definition's column list). *)

open Mv_base

type t = {
  def : Mv_catalog.Table_def.t;
  mutable rows : Value.t array list;
}

let create def = { def; rows = [] }

let of_rows def rows = { def; rows }

let name t = t.def.Mv_catalog.Table_def.name

let def_of t = t.def

let row_count t = List.length t.rows

let col_index t cname =
  let rec go i = function
    | [] -> None
    | (c : Mv_catalog.Column.t) :: rest ->
        if c.Mv_catalog.Column.name = cname then Some i else go (i + 1) rest
  in
  go 0 t.def.Mv_catalog.Table_def.columns

let col_index_exn t cname =
  match col_index t cname with
  | Some i -> i
  | None ->
      invalid_arg
        (Printf.sprintf "Table.col_index: no column %s in %s" cname (name t))

(* [rows] without the first [pending] rows [drop] claims, walking no
   further than the last of them: the rest of the list is shared. [None]
   when the list ends first. *)
let edit_rows drop pending rows =
  let rec go pending rows =
    if pending = 0 then rows
    else
      match rows with
      | [] -> raise Exit
      | row :: rest ->
          if drop row then go (pending - 1) rest else row :: go pending rest
  in
  match go pending rows with rows -> Some rows | exception Exit -> None

(* Verify the table's CHECK constraints over the data; returns the
   predicates that some row violates. *)
let check_violations t =
  let env row (c : Mv_base.Col.t) =
    match col_index t c.Mv_base.Col.col with
    | Some i -> row.(i)
    | None -> Mv_base.Value.Null
  in
  List.filter
    (fun check ->
      List.exists
        (fun row -> Mv_base.Eval.pred (env row) check = Mv_base.Pred.False)
        t.rows)
    t.def.Mv_catalog.Table_def.checks

(* Check declared not-null constraints over the data; returns offending
   column names (used by datagen tests). *)
let null_violations t =
  List.filteri (fun _ _ -> true) t.def.Mv_catalog.Table_def.columns
  |> List.mapi (fun i (c : Mv_catalog.Column.t) -> (i, c))
  |> List.filter_map (fun (i, (c : Mv_catalog.Column.t)) ->
         if c.Mv_catalog.Column.nullable then None
         else if List.exists (fun row -> Value.is_null row.(i)) t.rows then
           Some c.Mv_catalog.Column.name
         else None)
