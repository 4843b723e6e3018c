(** Evaluation of scalar expressions and predicates against an environment
    mapping column references to values. Shared by the execution engine and
    by property tests that compare predicate transformations by truth table. *)

exception Eval_error of string

let eval_error fmt = Fmt.kstr (fun s -> raise (Eval_error s)) fmt

let arith op a b =
  let open Value in
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> (
      match op with
      | Expr.Add -> Int (x + y)
      | Expr.Sub -> Int (x - y)
      | Expr.Mul -> Int (x * y)
      | Expr.Div -> if y = 0 then Null else Int (x / y))
  | (Int _ | Float _), (Int _ | Float _) -> (
      match (Value.as_float a, Value.as_float b) with
      | Some x, Some y -> (
          match op with
          | Expr.Add -> Float (x +. y)
          | Expr.Sub -> Float (x -. y)
          | Expr.Mul -> Float (x *. y)
          | Expr.Div -> if y = 0.0 then Null else Float (x /. y))
      | _ -> assert false)
  | Date d, Int i -> (
      (* date arithmetic: shifting by days *)
      match op with
      | Expr.Add -> Date (d + i)
      | Expr.Sub -> Date (d - i)
      | Expr.Mul | Expr.Div -> eval_error "invalid date arithmetic")
  | _ ->
      eval_error "type error in arithmetic: %s %s %s" (Value.to_string a)
        (Expr.binop_to_string op) (Value.to_string b)

let negate = function
  | Value.Null -> Value.Null
  | Value.Int i -> Value.Int (-i)
  | Value.Float f -> Value.Float (-.f)
  | v -> eval_error "cannot negate %s" (Value.to_string v)

let rec expr env : Expr.t -> Value.t = function
  | Expr.Const v -> v
  | Expr.Col c -> env c
  | Expr.Binop (op, l, r) -> arith op (expr env l) (expr env r)
  | Expr.Neg e -> negate (expr env e)
  | Expr.Func (f, args) -> func f (List.map (expr env) args)

and func name args =
  match (name, args) with
  | "substring", [ Value.Str s; Value.Int start; Value.Int len ] ->
      let start = max 1 start in
      let avail = String.length s - (start - 1) in
      if avail <= 0 || len <= 0 then Value.Str ""
      else Value.Str (String.sub s (start - 1) (min len avail))
  | "upper", [ Value.Str s ] -> Value.Str (String.uppercase_ascii s)
  | "lower", [ Value.Str s ] -> Value.Str (String.lowercase_ascii s)
  | "abs", [ Value.Int i ] -> Value.Int (abs i)
  | "abs", [ Value.Float f ] -> Value.Float (Float.abs f)
  | _, args when List.exists Value.is_null args -> Value.Null
  | _ -> eval_error "unknown function %s/%d" name (List.length args)

let cmp3_truth op a b : Pred.truth =
  match Value.cmp3 a b with
  | None -> Pred.Unknown
  | Some c ->
      Pred.truth_of_bool
        (match op with
        | Pred.Eq -> c = 0
        | Pred.Ne -> c <> 0
        | Pred.Lt -> c < 0
        | Pred.Le -> c <= 0
        | Pred.Gt -> c > 0
        | Pred.Ge -> c >= 0)

let like v pat =
  match v with
  | Value.Null -> Pred.Unknown
  | Value.Str s -> Pred.truth_of_bool (Like.matches ~pattern:pat s)
  | v -> eval_error "LIKE on non-string %s" (Value.to_string v)

let rec pred env : Pred.t -> Pred.truth = function
  | Pred.Cmp (op, l, r) -> cmp3_truth op (expr env l) (expr env r)
  | Pred.Like (e, pat) -> like (expr env e) pat
  | Pred.Is_null e -> Pred.truth_of_bool (Value.is_null (expr env e))
  | Pred.Not p -> Pred.truth_not (pred env p)
  | Pred.And (l, r) -> Pred.truth_and (pred env l) (pred env r)
  | Pred.Or (l, r) -> Pred.truth_or (pred env l) (pred env r)
  | Pred.Bool b -> Pred.truth_of_bool b

(* WHERE-clause semantics: keep only rows where the predicate is True. *)
let pred_holds env p = pred env p = Pred.True

(* ---- slot compilation ---------------------------------------------------

   The same semantics as [expr]/[pred], resolved once: each column becomes
   a read of its slot in a [Value.t array] tuple, and the closures call the
   same [arith], [negate], [func], [cmp3_truth] and [like] as the
   interpreter. A column [slot] does not place raises [Eval_error] when
   (and only when) the closure reads it, as an unbound column does under
   [expr]. *)

let unbound c = eval_error "unbound column %s" (Col.to_string c)

let rec compile_expr slot : Expr.t -> Value.t array -> Value.t = function
  | Expr.Const v -> fun _ -> v
  | Expr.Col c -> (
      match slot c with Some i -> fun t -> t.(i) | None -> fun _ -> unbound c)
  | Expr.Binop (op, l, r) ->
      let l = compile_expr slot l and r = compile_expr slot r in
      fun t -> arith op (l t) (r t)
  | Expr.Neg e ->
      let e = compile_expr slot e in
      fun t -> negate (e t)
  | Expr.Func (f, args) ->
      let args = List.map (compile_expr slot) args in
      fun t -> func f (List.map (fun a -> a t) args)

let rec compile_pred slot : Pred.t -> Value.t array -> Pred.truth = function
  | Pred.Cmp (op, l, r) ->
      let l = compile_expr slot l and r = compile_expr slot r in
      fun t -> cmp3_truth op (l t) (r t)
  | Pred.Like (e, pat) ->
      let e = compile_expr slot e in
      fun t -> like (e t) pat
  | Pred.Is_null e ->
      let e = compile_expr slot e in
      fun t -> Pred.truth_of_bool (Value.is_null (e t))
  | Pred.Not p ->
      let p = compile_pred slot p in
      fun t -> Pred.truth_not (p t)
  | Pred.And (l, r) ->
      let l = compile_pred slot l and r = compile_pred slot r in
      fun t -> Pred.truth_and (l t) (r t)
  | Pred.Or (l, r) ->
      let l = compile_pred slot l and r = compile_pred slot r in
      fun t -> Pred.truth_or (l t) (r t)
  | Pred.Bool b ->
      let v = Pred.truth_of_bool b in
      fun _ -> v

let compile_holds slot p =
  let p = compile_pred slot p in
  fun t -> p t = Pred.True
