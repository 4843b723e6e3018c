(** The paper's shallow expression-matching representation (section 3.1.2,
    residual subsumption): an expression or predicate is rendered as a text
    template with every column reference replaced by "?", plus the ordered
    list of the column references themselves. Two residual conjuncts match
    when the templates are equal and the columns in matching positions fall
    in the same (query) equivalence class.

    Templates are rendered once, when a block is analyzed, and kept as a
    {!shape}: the template's {!Intern.templates} id and the column ids in
    order, so matching compares ints and never renders. *)

open Mv_base

let placeholder = Col.make "" "?"

type shape = { tid : int; ids : int array }

type t = { template : string; cols : Col.t list; shape : shape; pred : Pred.t }

let ids_of cols = Array.of_list (List.map Intern.col cols)

let of_pred (p : Pred.t) : t =
  let cols = Pred.columns p in
  let hollow = Pred.map_exprs (Expr.map_cols (fun _ -> placeholder)) p in
  let template = Pred.to_string hollow in
  { template; cols; shape = { tid = Intern.template template; ids = ids_of cols };
    pred = p }

let expr_template (e : Expr.t) : string * Col.t list =
  let cols = Expr.columns e in
  (Expr.to_string (Expr.map_cols (fun _ -> placeholder) e), cols)

let no_shape = { tid = -1; ids = [||] }

(* A bare column's shape is the same wherever it appears, so it is built
   once per column and shared. *)
let col_tid = Intern.template (Col.to_string placeholder)

let col_shapes = Intern.by_col no_shape

let col_shape id =
  let s = Intern.by_col_get col_shapes id in
  if s != no_shape then s
  else
    let s = { tid = col_tid; ids = [| id |] } in
    Intern.by_col_set col_shapes id s;
    s

let expr_shape (e : Expr.t) : shape =
  match e with
  | Expr.Col c -> col_shape (Intern.col c)
  | _ ->
      let template, cols = expr_template e in
      { tid = Intern.template template; ids = ids_of cols }

(* Template equality + positional column equivalence under [equiv]. *)
let shapes_match (equiv : Equiv.t) (a : shape) (b : shape) =
  a.tid = b.tid
  && Array.length a.ids = Array.length b.ids
  &&
  let rec go i =
    i < 0 || (Equiv.same_id equiv a.ids.(i) b.ids.(i) && go (i - 1))
  in
  go (Array.length a.ids - 1)

let matches (equiv : Equiv.t) (a : t) (b : t) = shapes_match equiv a.shape b.shape

let pp ppf t = Fmt.pf ppf "%s" t.template
