(** Range sets: unions of disjoint intervals, normalized (sorted, merged).

    These generalize the single interval per equivalence class of
    section 3.1.2 to disjunctions of range predicates — the extension the
    paper describes but its prototype omits ("This range coverage algorithm
    can be extended to support disjunctions (OR) of range predicates"). *)

open Mv_base

type t = Interval.t list
(** invariant: non-empty intervals, sorted by lower bound, pairwise
    non-adjacent (no two can be merged) *)

let full : t = [ Interval.full ]

let is_full = function [ i ] -> Interval.is_full i | _ -> false

(* Do two intervals overlap or touch (so that their union is one
   interval)? Adjacent closed/open bounds like (..5] and (5..) merge. *)
let joinable (a : Interval.t) (b : Interval.t) =
  (* order so a's lower bound is first *)
  let a, b =
    if Interval.cmp_lower a.Interval.lo b.Interval.lo <= 0 then (a, b)
    else (b, a)
  in
  match (a.Interval.hi, b.Interval.lo) with
  | Interval.Unbounded, _ | _, Interval.Unbounded -> true
  | (Interval.Incl x | Interval.Excl x), (Interval.Incl y | Interval.Excl y)
    -> (
      let c = Value.order x y in
      if c > 0 then true
      else if c < 0 then false
      else
        (* touching at a point: at least one side must include it *)
        match (a.Interval.hi, b.Interval.lo) with
        | Interval.Excl _, Interval.Excl _ -> false
        | _ -> true)

let join (a : Interval.t) (b : Interval.t) : Interval.t =
  {
    Interval.lo =
      (if Interval.cmp_lower a.Interval.lo b.Interval.lo <= 0 then a.Interval.lo
       else b.Interval.lo);
    Interval.hi =
      (if Interval.cmp_upper a.Interval.hi b.Interval.hi >= 0 then a.Interval.hi
       else b.Interval.hi);
  }

(* Normalize an arbitrary interval list. *)
let normalize (is : Interval.t list) : t =
  let live = List.filter (fun i -> not (Interval.is_empty i)) is in
  let sorted =
    List.sort (fun a b -> Interval.cmp_lower a.Interval.lo b.Interval.lo) live
  in
  let rec merge = function
    | a :: b :: rest ->
        if joinable a b then merge (join a b :: rest) else a :: merge (b :: rest)
    | l -> l
  in
  merge sorted

let of_interval i = normalize [ i ]

let of_intervals = normalize

let union (a : t) (b : t) : t = normalize (a @ b)

(* The full set is the identity; skipping it keeps the common case of a
   class constrained on one side only from allocating. *)
let inter (a : t) (b : t) : t =
  if is_full a then b
  else if is_full b then a
  else normalize (List.concat_map (fun x -> List.map (Interval.intersect x) b) a)

let mem v (t : t) = List.exists (Interval.mem v) t

(* a contains b: every interval of b lies within some interval of a (valid
   because both are normalized, so a b-interval cannot straddle a gap of a
   without escaping every a-interval). *)
let contains ~outer ~inner =
  List.for_all
    (fun i -> List.exists (fun o -> Interval.contains ~outer:o ~inner:i) outer
    )
    inner

let equal (a : t) (b : t) =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         Interval.bound_equal x.Interval.lo y.Interval.lo
         && Interval.bound_equal x.Interval.hi y.Interval.hi)
       a b

(* Predicate enforcing membership of [e] in the set: the OR of the
   intervals' bound predicates. *)
let to_pred (e : Expr.t) (t : t) : Pred.t option =
  match t with
  | [] -> Some (Pred.Bool false)
  | [ i ] when Interval.is_full i -> None
  | is ->
      let of_interval i =
        match Interval.to_preds e i with
        | [] -> Pred.Bool true
        | ps -> Pred.conj ps
      in
      Some (Pred.disj (List.map of_interval is))

let to_string (t : t) =
  match t with
  | [] -> "{}"
  | is -> String.concat " u " (List.map Interval.to_string is)

let pp ppf t = Fmt.string ppf (to_string t)
