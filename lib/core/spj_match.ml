(** The SPJ-part tests of section 3.1-3.2: does the view contain every row
    the query needs, and which compensating predicates reduce it to exactly
    the query's rows?

    CHECK constraints are exploited exactly as the paper prescribes: they
    hold on every base-table row, so they can be added to the query side
    (the antecedent of the implication Wq => Wv) for the subsumption tests
    — but they never need compensation, because the view's rows satisfy
    them anyway.

    Everything the tests need from the view was computed at registration
    ({!View.matching}); each test does only query-dependent work, on
    column ids. The query's classes are read in place unless the view adds
    tables or CHECK equalities, in which case one int array is copied.
    Compensations come out in the order of their class roots, descending
    by column name, so substitutes read the same whatever the ids.

    On success this produces raw compensation data; [Compensate] then
    routes the column references to view output columns (and can still
    reject). *)

open Mv_base
module Sset = Mv_util.Sset
module Bitset = Mv_util.Bitset
module A = Mv_relalg.Analysis
module Equiv = Mv_relalg.Equiv
module Intern = Mv_relalg.Intern
module Interval = Mv_relalg.Interval
module Residual = Mv_relalg.Residual
module Rset = Mv_relalg.Rset

type ok = {
  q_equiv : Equiv.t;
      (** query equivalence classes, extended with the view's extra tables,
          the FK join conditions used to eliminate them, and check-derived
          column equalities *)
  comp_equalities : (int * int) list;
  comp_ranges : (int * Interval.t) list;
      (** (class member, bounds still to enforce) *)
  comp_range_sets : (int * Rset.t) list;
      (** disjunctive compensations: enforce membership of the whole set *)
  comp_residuals : Pred.t list;
}

let col = Intern.col_of_id

(* The smallest member of [c]'s class, by column name. *)
let min_member equiv c =
  Equiv.fold_class
    (fun m best -> if Col.compare (col m) (col best) < 0 then m else best)
    equiv c c

(* Class roots descending by column name: the order compensating
   predicates are emitted in. It must not depend on column ids, since a
   substitute's WHERE order feeds its cost estimate (selectivities are
   multiplied in order). *)
let root_desc ra rb = Col.compare (col rb) (col ra)

let by_root_desc (ra, _) (rb, _) = root_desc ra rb

(* Steps 1+2: table-set containment and extra-table elimination. On success,
   the query's equivalence classes extended to the view's table set
   (section 3.2) and by the CHECK column equalities of the view's tables. *)
let align_tables ~relaxed_nulls (query : A.t) (view : View.t) :
    (Equiv.t, Reject.t) result =
  let m = view.View.matching in
  let check_eqs = m.View.checks.View.check_eqs in
  let with_checks q =
    List.iter (fun (a, b) -> Equiv.merge_ids q a b) check_eqs;
    q
  in
  let v_tables = view.View.keys.View.source_tables in
  if not (Bitset.subset query.A.table_key v_tables) then
    Error Reject.Missing_tables
  else if Bitset.equal query.A.table_key v_tables then
    Ok
      (if check_eqs = [] then query.A.equiv
       else with_checks (Equiv.copy query.A.equiv))
  else
    let extras = Sset.diff view.View.source_tables query.A.table_set in
    let mode = if relaxed_nulls then `Query query else `Strict in
    let edges = List.filter (Fk_graph.admits ~mode) m.View.fk_edges in
    match Fk_graph.eliminate_extras ~extras edges with
    | None -> Error Reject.Extra_tables_not_eliminable
    | Some used ->
        let q_equiv =
          Equiv.copy_with_capacity query.A.equiv
            (Equiv.capacity view.View.analysis.A.equiv)
        in
        Sset.iter
          (fun tbl ->
            Equiv.add_table_ids q_equiv (Equiv.table_ids query.A.schema tbl))
          extras;
        List.iter
          (fun (e : Fk_graph.edge) ->
            List.iter
              (fun (f, c) -> Equiv.merge_ids q_equiv f c)
              e.Fk_graph.join_ids)
          used;
        Ok (with_checks q_equiv)

(* Step 3, equijoin subsumption: every nontrivial view class must lie
   within one (extended) query class. The compensating column-equality
   predicates link, within each query class, the view classes it is split
   into (section 3.1.2): the smallest member of each part, in column
   order, chained pairwise. *)
let equijoin_test (q_equiv : Equiv.t) (view : View.t) :
    ((int * int) list, Reject.t) result =
  let v_equiv = view.View.analysis.A.equiv in
  let within cls =
    let r = Equiv.root q_equiv cls.(0) in
    Array.for_all (fun c -> Equiv.root q_equiv c = r) cls
  in
  if not (List.for_all within view.View.matching.View.nontrivial) then
    Error Reject.Equijoin_subsumption_failed
  else
    let split qr =
      let vr = Equiv.root v_equiv qr in
      let spans_views c = Equiv.root v_equiv c <> vr in
      if not (Equiv.exists_in_class spans_views q_equiv qr) then None
      else
        let parts =
          Equiv.fold_class
            (fun c parts ->
              let vr = Equiv.root v_equiv c in
              match List.assoc_opt vr parts with
              | Some best when Col.compare (col best) (col c) <= 0 -> parts
              | _ -> (vr, c) :: List.remove_assoc vr parts)
            q_equiv qr []
        in
        let reps =
          List.sort (fun a b -> Col.compare (col a) (col b)) (List.map snd parts)
        in
        let rec pair = function
          | a :: (b :: _ as rest) -> (a, b) :: pair rest
          | [ _ ] | [] -> []
        in
        Some (qr, pair reps)
    in
    match List.filter_map split (Equiv.nontrivial_roots q_equiv) with
    | [] -> Ok []
    | comps -> Ok (List.concat_map snd (List.sort by_root_desc comps))

(* The range data of one (extended) query class: its own constraints, the
   same strengthened by CHECKs, and the intersection of the view's ranges
   over the class. *)
type class_range = {
  root : int;
  q_comp : Rset.t;
  q_test : Rset.t;
  v_set : Rset.t;
}

(* Every class the query or the view constrains. A class only a CHECK
   constrains needs no visit: the view's range on it is full, so it holds
   and compensates nothing. *)
let class_ranges (q_equiv : Equiv.t) ~(checks : View.checks) (query : A.t)
    (view : View.t) : class_range list =
  let root = Equiv.root q_equiv in
  let add acc (r, _) =
    let r = root r in
    if List.mem r acc then acc else r :: acc
  in
  let v_ranges = view.View.matching.View.range_sets in
  let touched =
    List.fold_left add (List.fold_left add [] query.A.ranges) v_ranges
  in
  let inter_in cons r init =
    List.fold_left
      (fun acc (c, s) -> if root c = r then Rset.inter acc s else acc)
      init cons
  in
  List.map
    (fun r ->
      let q_comp = inter_in query.A.ranges r Rset.full in
      {
        root = r;
        q_comp;
        q_test = inter_in checks.View.check_ranges r q_comp;
        v_set = inter_in v_ranges r Rset.full;
      })
    touched

(* Step 4, range subsumption: per (extended) query class, the intersection
   of the view's ranges over the class must contain the query's range —
   with check-constraint ranges strengthening the query side. The
   compensation enforces the bounds of the query's OWN range that are
   strictly stronger than the view's effective bound; check-derived bounds
   hold on the view's rows already and are never enforced. *)
let range_test (q_equiv : Equiv.t) ~(checks : View.checks) (query : A.t)
    (view : View.t) :
    ((int * Interval.t) list * (int * Rset.t) list, Reject.t) result =
  let crs = class_ranges q_equiv ~checks query view in
  match
    List.filter
      (fun cr -> not (Rset.contains ~outer:cr.v_set ~inner:cr.q_test))
      crs
  with
  | _ :: _ as failed ->
      Error
        (Reject.Range_subsumption_failed
           (fun () ->
             let cr =
               List.hd (List.sort (fun a b -> root_desc a.root b.root) failed)
             in
             Fmt.str "%s: view %s does not contain query %s"
               (Col.to_string (col (min_member q_equiv cr.root)))
               (Rset.to_string cr.v_set) (Rset.to_string cr.q_test)))
  | [] ->
      let comps =
        List.filter_map
          (fun cr ->
            let comp =
              match (cr.v_set, cr.q_comp) with
              | [ v_int ], [ q_int ] ->
                  (* the single-interval fast path of section 3.1.2:
                     enforce only the bounds that differ *)
                  let delta =
                    {
                      Interval.lo =
                        (if
                           Interval.cmp_lower v_int.Interval.lo q_int.Interval.lo
                           < 0
                         then q_int.Interval.lo
                         else Interval.Unbounded);
                      Interval.hi =
                        (if
                           Interval.cmp_upper q_int.Interval.hi v_int.Interval.hi
                           < 0
                         then q_int.Interval.hi
                         else Interval.Unbounded);
                    }
                  in
                  if Interval.is_full delta then None else Some (`Delta delta)
              | _ ->
                  (* disjunctions involved: enforce the query's own set
                     unless the view already restricts to exactly it *)
                  if Rset.is_full cr.q_comp || Rset.equal cr.v_set cr.q_comp
                  then None
                  else Some (`Set cr.q_comp)
            in
            Option.map (fun c -> (cr.root, c)) comp)
          crs
        |> List.sort by_root_desc
        |> List.map (fun (r, c) -> (min_member q_equiv r, c))
      in
      Ok
        ( List.filter_map
            (function c, `Delta d -> Some (c, d) | _, `Set _ -> None)
            comps,
          List.filter_map
            (function c, `Set s -> Some (c, s) | _, `Delta _ -> None)
            comps )

(* Step 5, residual subsumption: every view residual must match a distinct
   query residual — or a check-constraint residual, which holds on the
   view's rows by definition. Unmatched residuals of the query itself
   become compensations. *)
let residual_test (q_equiv : Equiv.t) ~(checks : View.checks) (query : A.t)
    (view : View.t) : (Pred.t list, Reject.t) result =
  match view.View.analysis.A.residuals with
  | [] ->
      Ok (List.map (fun (r : Residual.t) -> r.Residual.pred) query.A.residuals)
  | v_residuals -> (
      let pool =
        List.map (fun r -> (`Own, r)) query.A.residuals
        @ List.map (fun r -> (`Check, r)) checks.View.check_residuals
      in
      let rec consume pool = function
        | [] -> Ok pool
        | (vr : Residual.t) :: rest -> (
            let rec take seen = function
              | [] -> None
              | ((_, qr) as entry) :: qrest ->
                  if Residual.matches q_equiv vr qr then
                    Some (List.rev_append seen qrest)
                  else take (entry :: seen) qrest
            in
            match take [] pool with
            | None ->
                Error
                  (Reject.Residual_subsumption_failed
                     (fun () ->
                       Fmt.str "view predicate %s has no match"
                         vr.Residual.template))
            | Some pool' -> consume pool' rest)
      in
      match consume pool v_residuals with
      | Error _ as e -> e
      | Ok remaining ->
          Ok
            (List.filter_map
               (fun (src, r) ->
                 match src with
                 | `Own -> Some r.Residual.pred
                 | `Check -> None)
               remaining))

let run ?(relaxed_nulls = false) (query : A.t) (view : View.t) :
    (ok, Reject.t) result =
  let ( let* ) = Result.bind in
  let checks = view.View.matching.View.checks in
  let* q_equiv = align_tables ~relaxed_nulls query view in
  let* comp_equalities = equijoin_test q_equiv view in
  let* comp_ranges, comp_range_sets = range_test q_equiv ~checks query view in
  let* comp_residuals = residual_test q_equiv ~checks query view in
  Ok { q_equiv; comp_equalities; comp_ranges; comp_range_sets; comp_residuals }
