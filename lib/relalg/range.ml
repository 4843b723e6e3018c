(** Range extraction (section 3.1.2, plus the paper's disjunction
    extension): one range *set* per column equivalence class, keyed by the
    class root. Conjunctive range predicates intersect as single
    intervals; each OR-of-ranges conjunct contributes its interval union,
    and conjuncts intersect — so e.g. (a BETWEEN 1 AND 5 OR a = 7), after
    CNF, reassembles into exactly [1,5] u [7,7].

    Range sets are normalized, so intersection is commutative and
    associative on their representation too: the set of a class does not
    depend on the order its constraints arrive in. *)

open Mv_base

type map = (int * Rset.t) list

let add_id (m : map) r (set : Rset.t) : map =
  match List.assoc_opt r m with
  | None -> (r, set) :: m
  | Some cur -> (r, Rset.inter cur set) :: List.remove_assoc r m

(* Constraints given per column id, keyed by their class root in [equiv]. *)
let of_cols (equiv : Equiv.t) (cons : (int * Rset.t) list) : map =
  List.fold_left (fun m (c, set) -> add_id m (Equiv.root equiv c) set) [] cons

let constraints (ranges : (Col.t * Pred.cmp * Value.t) list)
    (disj : (Col.t * Interval.t list) list) : (int * Rset.t) list =
  List.map
    (fun (c, op, v) -> (Intern.col c, Rset.of_interval (Interval.of_cmp op v)))
    ranges
  @ List.map (fun (c, intervals) -> (Intern.col c, Rset.of_intervals intervals))
      disj

let build (equiv : Equiv.t) ranges disj : map =
  of_cols equiv (constraints ranges disj)

(* Range set for the class containing column id [c] (full when
   unconstrained). *)
let find_id (equiv : Equiv.t) (m : map) c : Rset.t =
  match List.assoc_opt (Equiv.root equiv c) m with
  | Some s -> s
  | None -> Rset.full

let find equiv m c = find_id equiv m (Intern.col c)

let constrained_roots (m : map) =
  List.filter_map (fun (r, s) -> if Rset.is_full s then None else Some r) m

let pp equiv ppf (m : map) =
  List.iter
    (fun (r, s) ->
      if not (Rset.is_full s) then
        Fmt.pf ppf "{%a} in %a; "
          Fmt.(list ~sep:(any ", ") Col.pp)
          (Col.Set.elements (Equiv.to_colset (Equiv.class_ids equiv r)))
          Rset.pp s)
    m
