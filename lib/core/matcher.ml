(** The complete view-matching pipeline of section 3: given an analyzed
    query expression and one view, either construct a substitute or explain
    the rejection.

    With [backjoins] enabled (the extension sketched in section 7), a
    failed routing pass is retried once: the tables owning the unresolved
    columns are joined back to the view on unique keys the view outputs,
    restoring the missing columns without changing cardinality. *)

module A = Mv_relalg.Analysis
module Spjg = Mv_relalg.Spjg
module Residual = Mv_relalg.Residual

let ( let* ) = Result.bind

(* Does every expression of [xs] match some expression of [ys] under
   [q_equiv]? (grouping-list subset test, section 3.3, on the analyses'
   expression shapes). *)
let exprs_subset q_equiv xs ys =
  Array.for_all (fun x -> Array.exists (Residual.shapes_match q_equiv x) ys) xs

(* Decide the aggregation situation. *)
let grouping (view : View.t) (q_equiv : Mv_relalg.Equiv.t) (query : A.t) :
    ([ `Plain | `Agg_over_spj | `Agg_same | `Agg_regroup ], Reject.t) result =
  let q_gb = query.A.spjg.Spjg.group_by in
  let v_gb = (View.spjg view).Spjg.group_by in
  match (q_gb, v_gb) with
  | None, None -> Ok `Plain
  | None, Some _ -> Error Reject.View_more_aggregated
  | Some _, None -> Ok `Agg_over_spj
  | Some _, Some _ ->
      let gq = query.A.group_shapes
      and gv = view.View.analysis.A.group_shapes in
      if not (exprs_subset q_equiv gq gv) then
        Error
          (Reject.Grouping_incompatible
             (Reject.detail "query grouping list is not a subset of the view's"))
      else if exprs_subset q_equiv gv gq then Ok `Agg_same
      else Ok `Agg_regroup

(* Map the query's group-by expressions onto the view's output. *)
let substitute_group_by (router : Routing.t) q_equiv ~situation (query : A.t) :
    (Mv_base.Expr.t list option, Reject.t) result =
  match (situation, query.A.spjg.Spjg.group_by) with
  | `Plain, _ | `Agg_same, _ -> Ok None
  | (`Agg_over_spj | `Agg_regroup), Some gq ->
      let rec go acc i = function
        | [] -> Ok (Some (List.rev acc))
        | g :: rest -> (
            let shape = query.A.group_shapes.(i) in
            match Output_match.scalar router q_equiv g shape with
            | Some g' -> go (g' :: acc) (i + 1) rest
            | None ->
                Error
                  (Reject.Grouping_incompatible
                     (fun () ->
                       Fmt.str "grouping expression %s not available"
                         (Mv_base.Expr.to_string g))))
      in
      go [] 0 gq
  | (`Agg_over_spj | `Agg_regroup), None -> assert false

(* One construction pass with a given router. *)
let build_substitute (router : Routing.t) ~backjoin_preds
    (tests : Spj_match.ok) ~situation (query : A.t) :
    (Substitute.t, Reject.t) result =
  let q_equiv = tests.Spj_match.q_equiv in
  let* preds = Compensate.all router tests in
  let* group_by = substitute_group_by router q_equiv ~situation query in
  let* out =
    Output_match.out_items router q_equiv ~situation query.A.spjg.Spjg.out
      query.A.out_shapes
  in
  match
    Substitute.make ~backjoins:router.Routing.backjoins ~backjoin_preds
      router.Routing.view ~preds ~group_by ~out
  with
  | s -> Ok s
  | exception Spjg.Invalid msg ->
      Error
        (Reject.Output_not_computable (fun () -> "substitute invalid: " ^ msg))

let match_view ?(relaxed_nulls = false) ?(backjoins = false)
    ?(fresh_only = false) ?spans ~(query : A.t) (view : View.t) :
    (Substitute.t, Reject.t) result =
  if fresh_only && View.is_stale view then begin
    (* freshness gate (DESIGN.md §12): a stale view may answer with data
       its base tables have since outrun, so a fresh-only caller rejects
       it before any structural test runs *)
    Mv_obs.Span.annotate spans (fun () ->
        [
          ("result", Mv_obs.Span.Str "rejected");
          ("reject", Mv_obs.Span.Str (Reject.label Reject.Stale));
          ("detail", Mv_obs.Span.Str (Reject.to_string Reject.Stale));
        ]);
    Error Reject.Stale
  end
  else
  let checks =
    Mv_obs.Span.wrap spans "spj-tests" (fun _ ->
        let* tests = Spj_match.run ~relaxed_nulls query view in
        let* situation = grouping view tests.Spj_match.q_equiv query in
        Ok (tests, situation))
  in
  let result =
    match checks with
    | Error _ as e -> e
    | Ok (tests, situation) ->
        Mv_obs.Span.wrap spans "construct" (fun _ ->
            (* Construction fails fast, so a failing pass may only reveal
               the first unresolved table; iterate, folding newly discovered
               tables into the backjoin set, until success or no progress.
               Each round adds at least one table, so this terminates within
               the query's table count. *)
            let rec attempt joined preds_so_far first_error =
              let router =
                if joined = [] then Routing.plain view
                else Routing.with_backjoins view joined
              in
              match
                build_substitute router ~backjoin_preds:preds_so_far tests
                  ~situation query
              with
              | Ok s -> Ok s
              | Error e -> (
                  let e = Option.value first_error ~default:e in
                  if not backjoins then Error e
                  else
                    let fresh =
                      List.filter
                        (fun t -> not (List.mem t joined))
                        (Routing.missing_tables router)
                    in
                    match fresh with
                    | [] -> Error e
                    | _ -> (
                        let joins =
                          List.map
                            (fun t -> (t, Routing.backjoin_preds view t))
                            fresh
                        in
                        if List.exists (fun (_, p) -> p = None) joins then
                          Error e
                        else
                          let new_preds =
                            List.concat_map
                              (fun (_, p) -> Option.value ~default:[] p)
                              joins
                          in
                          attempt (fresh @ joined) (new_preds @ preds_so_far)
                            (Some e)))
            in
            attempt [] [] None)
  in
  (match result with
  | Ok _ ->
      Mv_obs.Span.annotate spans (fun () ->
          [ ("result", Mv_obs.Span.Str "matched") ])
  | Error e ->
      Mv_obs.Span.annotate spans (fun () ->
          [
            ("result", Mv_obs.Span.Str "rejected");
            ("reject", Mv_obs.Span.Str (Reject.label e));
            ("detail", Mv_obs.Span.Str (Reject.to_string e));
          ]));
  result

(* Convenience entry point used by tests and examples. *)
let match_spjg ?relaxed_nulls ?backjoins ?fresh_only schema
    ~(query : Spjg.t) (view : View.t) =
  let analysis = A.analyze schema query in
  match_view ?relaxed_nulls ?backjoins ?fresh_only ~query:analysis view
