(** Reference column equivalence classes: string-keyed, over
    {!Ref_union_find}. This is the section 3.1.1 structure the library used
    before its classes moved to dense column ids; the model property in
    [test_relalg.ml] holds {!Mv_relalg.Equiv} to it. *)

open Mv_base

module UF = Ref_union_find.Make (struct
  type t = Col.t

  let compare = Col.compare
end)

type t = UF.t

let add_tables (schema : Mv_catalog.Schema.t) t tables =
  List.iter
    (fun tbl ->
      let td = Mv_catalog.Schema.table_exn schema tbl in
      List.iter
        (fun cname -> UF.add t (Col.make tbl cname))
        (Mv_catalog.Table_def.column_names td))
    tables

let build schema ~tables ~(col_eqs : (Col.t * Col.t) list) : t =
  let uf = UF.create () in
  add_tables schema uf tables;
  List.iter (fun (a, b) -> UF.union uf a b) col_eqs;
  uf

let copy = UF.copy

let merge t a b = UF.union t a b

let same t a b = UF.same t a b

let class_of t c =
  let r = UF.find t c in
  List.fold_left
    (fun acc x -> if Col.compare (UF.find t x) r = 0 then Col.Set.add x acc else acc)
    Col.Set.empty (UF.members t)

let classes t = List.map Col.Set.of_list (UF.classes t)

let nontrivial_classes t =
  List.filter (fun s -> Col.Set.cardinal s > 1) (classes t)

let class_within t (cls : Col.Set.t) =
  match Col.Set.elements cls with
  | [] -> true
  | c :: rest -> List.for_all (fun x -> same t c x) rest
