(** Finding union substitutes: views that pass every test except range
    subsumption on exactly one equivalence class are sliced along that
    class and greedily composed into a cover of the query's range.

    Restricted to SPJ queries (unions of aggregated slices would have to
    merge groups that span a slice boundary, which single-pass UNION ALL
    cannot do). Each slice is matched by re-running the standard pipeline
    on the query narrowed to the slice, so all compensation machinery is
    reused and each part is individually sound. *)

open Mv_base
module A = Mv_relalg.Analysis
module Equiv = Mv_relalg.Equiv
module Interval = Mv_relalg.Interval
module Range = Mv_relalg.Range
module Spjg = Mv_relalg.Spjg

(* If [view] fails only the range test, and only on one class, return the
   representative column of that class (under the view-extended query
   equivalence) together with the extended equivalence itself. *)
let single_range_gap ~relaxed_nulls (query : A.t) (view : View.t) :
    (Col.t * Equiv.t) option =
  match Spj_match.align_tables ~relaxed_nulls query view with
  | Error _ -> None
  | Ok q_equiv -> (
      let checks = view.View.matching.View.checks in
      match Spj_match.equijoin_test q_equiv view with
      | Error _ -> None
      | Ok _ -> (
          (* residuals must also pass: slicing only fixes ranges *)
          match Spj_match.residual_test q_equiv ~checks query view with
          | Error _ -> None
          | Ok _ -> (
              match
                List.filter
                  (fun cr -> not (Spj_match.contained cr))
                  (Spj_match.class_ranges q_equiv ~checks query view)
              with
              | [ cr ] ->
                  let rep =
                    Col.Set.min_elt
                      (Equiv.to_colset
                         (Equiv.class_ids q_equiv cr.Spj_match.root))
                  in
                  Some (rep, q_equiv)
              | _ -> None)))

(* The view's effective range on the class of [rep] — the convex hull of
   its set: slicing over the hull is conservative (a slice that includes a
   gap simply fails its per-slice match and the cover attempt aborts). *)
let view_range_on (q_equiv : Equiv.t) (view : View.t) (rep : Col.t) =
  let v_equiv = view.View.analysis.A.equiv in
  let v_ranges = view.View.analysis.A.ranges in
  let view_tables = (View.spjg view).Spjg.tables in
  Mv_relalg.Rset.hull
    (Col.Set.fold
       (fun c acc ->
         if List.mem c.Col.tbl view_tables then
           Mv_relalg.Rset.inter acc (Range.find v_equiv v_ranges c)
         else acc)
       (Equiv.class_of q_equiv rep)
       Mv_relalg.Rset.full)

(* A column of the class usable for the slice predicates: it must belong
   to the query's own tables. *)
let slice_col (query : A.t) (q_equiv : Equiv.t) (rep : Col.t) : Col.t option =
  Col.Set.fold
    (fun c acc ->
      match acc with
      | Some _ -> acc
      | None ->
          if List.mem c.Col.tbl query.A.spjg.Spjg.tables then Some c else None)
    (Equiv.class_of q_equiv rep)
    None

(* NULL safety: slicing adds range predicates, which reject NULLs. That is
   only transparent when the original query cannot produce a row with NULL
   there: either the query's own range on the class is already constrained,
   or the class is non-trivial (the equijoin itself rejects NULLs), or the
   column is declared not-null. *)
let null_safe (query : A.t) (q_equiv : Equiv.t) (rep : Col.t) (c : Col.t) =
  let q_own =
    Range.build q_equiv query.A.classified.Mv_relalg.Classify.ranges
      query.A.classified.Mv_relalg.Classify.disj_ranges
  in
  (not (Mv_relalg.Rset.is_full (Range.find q_equiv q_own rep)))
  || Col.Set.cardinal (Equiv.class_of q_equiv rep) > 1
  || not (Mv_catalog.Schema.column_nullable query.A.schema c)

(* Flip a slice's upper bound into the next slice's lower bound so that
   consecutive slices are disjoint and jointly gap-free. *)
let next_lower = function
  | Interval.Unbounded -> None (* covered to +inf: done *)
  | Interval.Incl v -> Some (Interval.Excl v)
  | Interval.Excl v -> Some (Interval.Incl v)

(* The query narrowed to [slice] on [col]. *)
let narrowed (query : A.t) (col : Col.t) (slice : Interval.t) : Spjg.t =
  let q = query.A.spjg in
  Spjg.make ~tables:q.Spjg.tables
    ~where:(q.Spjg.where @ Interval.to_preds (Expr.Col col) slice)
    ~group_by:q.Spjg.group_by ~out:q.Spjg.out

(* Greedy interval cover: repeatedly take, among the views whose range
   starts at or below the uncovered point, the one reaching farthest. *)
let find ?(relaxed_nulls = false) ?(backjoins = false) ?(max_parts = 4)
    (query : A.t) (views : View.t list) : Union_substitute.t option =
  if Spjg.is_aggregate query.A.spjg then None
  else
    (* group the sliceable views by the representative of their failing
       class (under the query's own equivalence — representatives from
       differently-extended equivalences still coincide on query columns) *)
    let gaps =
      List.filter_map
        (fun v ->
          Option.map
            (fun (rep, q_equiv) -> (v, rep, q_equiv))
            (single_range_gap ~relaxed_nulls query v))
        views
    in
    let by_class =
      List.fold_left
        (fun acc (v, rep, q_equiv) ->
          let key = Equiv.repr query.A.equiv rep in
          let cur = try List.assoc key acc with Not_found -> [] in
          (key, (v, q_equiv) :: cur) :: List.remove_assoc key acc)
        []
        (List.filter_map
           (fun (v, rep, q_equiv) ->
             (* only classes visible in the query itself can be sliced *)
             if List.mem rep.Col.tbl query.A.spjg.Spjg.tables then
               Some (v, rep, q_equiv)
             else
               Option.map
                 (fun c -> (v, c, q_equiv))
                 (slice_col query q_equiv rep))
           gaps)
    in
    let attempt (rep, candidates) =
      match slice_col query query.A.equiv rep with
      | None -> None
      | Some col ->
          if not (null_safe query query.A.equiv rep col) then None
          else
            let q_target =
              Mv_relalg.Rset.hull
                (Range.find query.A.equiv
                   (Range.build query.A.equiv
                      query.A.classified.Mv_relalg.Classify.ranges
                      query.A.classified.Mv_relalg.Classify.disj_ranges)
                   rep)
            in
            let ranged =
              List.map
                (fun (v, q_equiv) -> (v, view_range_on q_equiv v rep))
                candidates
            in
            let rec cover lo parts slices n =
              if n > max_parts then None
              else
                let usable =
                  List.filter
                    (fun (_, r) -> Interval.cmp_lower r.Interval.lo lo <= 0)
                    ranged
                in
                match usable with
                | [] -> None
                | _ -> (
                    let v, r =
                      List.fold_left
                        (fun (bv, br) (v, r) ->
                          if
                            Interval.cmp_upper r.Interval.hi br.Interval.hi > 0
                          then (v, r)
                          else (bv, br))
                        (List.hd usable) (List.tl usable)
                    in
                    let hi =
                      if
                        Interval.cmp_upper r.Interval.hi
                          q_target.Interval.hi >= 0
                      then q_target.Interval.hi
                      else r.Interval.hi
                    in
                    let slice = { Interval.lo; hi } in
                    if Interval.is_empty slice then None
                    else
                      let narrowed_q =
                        A.analyze query.A.schema (narrowed query col slice)
                      in
                      match
                        Matcher.match_view ~relaxed_nulls ~backjoins
                          ~query:narrowed_q v
                      with
                      | Error _ -> None
                      | Ok part ->
                          let parts = part :: parts in
                          let slices = slice :: slices in
                          if
                            Interval.cmp_upper hi q_target.Interval.hi >= 0
                          then Some (List.rev parts, List.rev slices)
                          else (
                            match next_lower hi with
                            | None -> Some (List.rev parts, List.rev slices)
                            | Some lo' -> cover lo' parts slices (n + 1)))
            in
            (match cover q_target.Interval.lo [] [] 1 with
            | Some (parts, slices) when List.length parts >= 2 ->
                Some
                  {
                    Union_substitute.parts;
                    sliced_on = col;
                    slices;
                  }
            | _ -> None)
    in
    List.find_map attempt by_class
