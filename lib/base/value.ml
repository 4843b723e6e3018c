(** Runtime values with SQL NULL.

    Comparisons come in two flavours:
    - [cmp3]: SQL semantics; any comparison involving NULL is Unknown.
    - [order]: an arbitrary but consistent total order (NULL first) used for
      grouping, sorting and multiset comparison in tests. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Date of int  (** days since 1970-01-01 *)

let dtype_of = function
  | Null -> None
  | Int _ -> Some Dtype.Int
  | Float _ -> Some Dtype.Float
  | Str _ -> Some Dtype.Str
  | Bool _ -> Some Dtype.Bool
  | Date _ -> Some Dtype.Date

let is_null = function Null -> true | _ -> false

(* Numeric view used for cross-type Int/Float comparison and arithmetic. *)
let as_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Null | Str _ | Bool _ | Date _ -> None

exception Type_error of string

let type_error fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt

(* Three-valued comparison: None when either side is NULL; raises
   [Type_error] on incomparable types (a bug in callers, not data). *)
let cmp3 a b =
  match (a, b) with
  | Null, _ | _, Null -> None
  | Int x, Int y -> Some (compare x y)
  | Float x, Float y -> Some (compare x y)
  | (Int _ | Float _), (Int _ | Float _) -> (
      match (as_float a, as_float b) with
      | Some x, Some y -> Some (compare x y)
      | _ -> assert false)
  | Str x, Str y -> Some (compare x y)
  | Bool x, Bool y -> Some (compare x y)
  | Date x, Date y -> Some (compare x y)
  | _ ->
      type_error "cannot compare %s with %s"
        (match dtype_of a with Some d -> Dtype.to_string d | None -> "null")
        (match dtype_of b with Some d -> Dtype.to_string d | None -> "null")

(* Total order for grouping/sorting: NULL < everything; mixed numerics
   compare numerically; otherwise order by type tag. *)
let order a b =
  let tag = function
    | Null -> 0
    | Bool _ -> 1
    | Int _ | Float _ -> 2
    | Date _ -> 3
    | Str _ -> 4
  in
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> compare x y
  | Float x, Float y -> compare x y
  | Int x, Float y -> compare (float_of_int x) y
  | Float x, Int y -> compare x (float_of_int y)
  | Str x, Str y -> compare x y
  | Bool x, Bool y -> compare x y
  | Date x, Date y -> compare x y
  | _ -> compare (tag a) (tag b)

let equal a b = order a b = 0

(* Consistent with [order]: an Int hashes through its float, so it hashes
   like the numerically equal Float, and -0.0 is folded into 0.0. Values
   [order] tells apart may still collide; hash tables only need the
   converse. *)
let hash = function
  | Null -> 0
  | Int i -> Hashtbl.hash (float_of_int i)
  | Float f -> Hashtbl.hash (f +. 0.0)
  | Str s -> Hashtbl.hash s
  | Bool b -> Hashtbl.hash b
  | Date d -> Hashtbl.hash d

module Key = Hashtbl.Make (struct
  type nonrec t = t array

  let equal a b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i = n || (order a.(i) b.(i) = 0 && go (i + 1)) in
    go 0

  let hash a = Array.fold_left (fun h v -> (h * 65599) + hash v) 0 a
end)

let to_string = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> "'" ^ s ^ "'"
  | Bool b -> if b then "TRUE" else "FALSE"
  | Date d -> "DATE '" ^ Date.to_string d ^ "'"

let pp ppf v = Fmt.string ppf (to_string v)
