(** The null-rejecting FK relaxation (last paragraph of section 3.2): a
    nullable foreign-key column normally disqualifies the edge, but when
    the query carries a null-rejecting predicate on that column the join is
    still cardinality preserving for exactly the rows the query keeps. *)

open Mv_base
module Spjg = Mv_relalg.Spjg

(* a small schema with a nullable FK: employee.dept_id -> department.id *)
let schema =
  Mv_catalog.Schema.make
    ~tables:
      [
        Mv_catalog.Table_def.make ~name:"department"
          ~columns:
            [
              Mv_catalog.Column.make "id" Dtype.Int;
              Mv_catalog.Column.make "dname" Dtype.Str;
            ]
          ~primary_key:[ "id" ] ();
        Mv_catalog.Table_def.make ~name:"employee"
          ~columns:
            [
              Mv_catalog.Column.make "eid" Dtype.Int;
              Mv_catalog.Column.make ~nullable:true "dept_id" Dtype.Int;
              Mv_catalog.Column.make "salary" Dtype.Int;
            ]
          ~primary_key:[ "eid" ] ();
      ]
    ~foreign_keys:
      [
        Mv_catalog.Foreign_key.make ~from_tbl:"employee"
          ~from_cols:[ "dept_id" ] ~to_tbl:"department" ~to_cols:[ "id" ];
      ]

let c t n = Col.make t n

let view_def =
  (* employee joined with department: rows with NULL dept_id are absent *)
  Spjg.make ~tables:[ "department"; "employee" ]
    ~where:
      [ Pred.Cmp (Pred.Eq, Expr.Col (c "employee" "dept_id"), Expr.Col (c "department" "id")) ]
    ~group_by:None
    ~out:
      [
        Spjg.scalar "eid" (Expr.Col (c "employee" "eid"));
        Spjg.scalar "dept_id" (Expr.Col (c "employee" "dept_id"));
        Spjg.scalar "salary" (Expr.Col (c "employee" "salary"));
      ]

(* query with a null-rejecting range predicate on the FK column *)
let query_rejecting =
  Spjg.make ~tables:[ "employee" ]
    ~where:
      [ Pred.Cmp (Pred.Ge, Expr.Col (c "employee" "dept_id"), Expr.Const (Value.Int 2)) ]
    ~group_by:None
    ~out:
      [
        Spjg.scalar "eid" (Expr.Col (c "employee" "eid"));
        Spjg.scalar "salary" (Expr.Col (c "employee" "salary"));
      ]

(* query without any predicate on the FK column: NULL rows must appear *)
let query_keeping =
  Spjg.make ~tables:[ "employee" ] ~where:[] ~group_by:None
    ~out:[ Spjg.scalar "eid" (Expr.Col (c "employee" "eid")) ]

let test_strict_mode_rejects () =
  let view = Mv_core.View.create schema ~name:"emp_dept" view_def in
  match Mv_core.Matcher.match_spjg schema ~query:query_rejecting view with
  | Error Mv_core.Reject.Extra_tables_not_eliminable -> ()
  | Error r -> Alcotest.failf "unexpected rejection: %s" (Mv_core.Reject.to_string r)
  | Ok _ -> Alcotest.fail "strict mode must reject the nullable FK edge"

let test_relaxed_accepts_with_rejecting_pred () =
  let view =
    Mv_core.View.create ~relaxed_nulls:true schema ~name:"emp_dept2" view_def
  in
  match
    Mv_core.Matcher.match_spjg ~relaxed_nulls:true schema
      ~query:query_rejecting view
  with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "expected a match, got %s" (Mv_core.Reject.to_string r)

let test_relaxed_still_rejects_without_pred () =
  let view =
    Mv_core.View.create ~relaxed_nulls:true schema ~name:"emp_dept3" view_def
  in
  match
    Mv_core.Matcher.match_spjg ~relaxed_nulls:true schema ~query:query_keeping
      view
  with
  | Error Mv_core.Reject.Extra_tables_not_eliminable -> ()
  | Error r -> Alcotest.failf "unexpected rejection: %s" (Mv_core.Reject.to_string r)
  | Ok _ ->
      Alcotest.fail
        "without a null-rejecting predicate the rows with NULL dept_id are \
         missing from the view"

let test_relaxed_rewrite_is_correct_on_nulls () =
  (* execute with actual NULLs present *)
  let db = Mv_engine.Database.create schema in
  Helpers.insert db "department"
    [
      [| Value.Int 1; Value.Str "eng" |];
      [| Value.Int 2; Value.Str "ops" |];
      [| Value.Int 3; Value.Str "hr" |];
    ];
  Helpers.insert db "employee"
    (List.mapi
       (fun i dept -> [| Value.Int (i + 1); dept; Value.Int ((i + 1) * 100) |])
       [ Value.Int 1; Value.Int 2; Value.Null; Value.Int 3; Value.Null; Value.Int 2 ]);
  let view =
    Mv_core.View.create ~relaxed_nulls:true schema ~name:"emp_dept4" view_def
  in
  match
    Mv_core.Matcher.match_spjg ~relaxed_nulls:true schema
      ~query:query_rejecting view
  with
  | Error r -> Alcotest.failf "expected a match, got %s" (Mv_core.Reject.to_string r)
  | Ok s ->
      ignore (Mv_engine.Exec.materialize db view);
      let direct = Mv_engine.Exec.execute db query_rejecting in
      let via = Mv_engine.Exec.execute_substitute db s in
      Alcotest.(check int) "three employees in depts >= 2" 3
        (Mv_engine.Relation.cardinality direct);
      Alcotest.(check bool) "rewrite equivalent on null data" true
        (Mv_engine.Relation.same_bag direct via)

let test_relaxed_hub_is_optimistic () =
  (* relaxed mode must shrink the hub so the filter tree cannot prune the
     view for queries that only mention employee *)
  let strict = Mv_core.View.create schema ~name:"h1" view_def in
  let relaxed =
    Mv_core.View.create ~relaxed_nulls:true schema ~name:"h2" view_def
  in
  Alcotest.(check (list string))
    "strict hub keeps both" [ "department"; "employee" ]
    (Mv_util.Sset.to_list strict.Mv_core.View.hub);
  Alcotest.(check (list string))
    "relaxed hub shrinks" [ "employee" ]
    (Mv_util.Sset.to_list relaxed.Mv_core.View.hub)

let test_registry_end_to_end_relaxed () =
  let r = Mv_core.Registry.create ~relaxed_nulls:true schema in
  ignore (Mv_core.Registry.add_view r ~name:"emp_dept5" view_def);
  Alcotest.(check int) "found through filter tree" 1
    (List.length (Mv_core.Registry.find_substitutes_spjg r query_rejecting))

let suite =
  [
    ( "relaxed-nulls",
      [
        Alcotest.test_case "strict mode rejects nullable FK" `Quick
          test_strict_mode_rejects;
        Alcotest.test_case "relaxed accepts with null-rejecting predicate"
          `Quick test_relaxed_accepts_with_rejecting_pred;
        Alcotest.test_case "relaxed still rejects without predicate" `Quick
          test_relaxed_still_rejects_without_pred;
        Alcotest.test_case "rewrite correct on NULL data" `Quick
          test_relaxed_rewrite_is_correct_on_nulls;
        Alcotest.test_case "relaxed hub is optimistic" `Quick
          test_relaxed_hub_is_optimistic;
        Alcotest.test_case "registry end to end" `Quick
          test_registry_end_to_end_relaxed;
      ] );
  ]
