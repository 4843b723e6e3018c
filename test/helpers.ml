(** Shared helpers for the test suites. *)

open Mv_base

let schema = Mv_tpch.Schema.schema

let parse_q src = Mv_sql.Parser.parse_query schema src

let parse_v src = Mv_sql.Parser.parse_view schema src

let view_of_sql ?(relaxed_nulls = false) src =
  let name, spjg = parse_v src in
  Mv_core.View.create ~relaxed_nulls schema ~name spjg

let match_sql ?relaxed_nulls ~view_sql ~query_sql () =
  let view = view_of_sql ?relaxed_nulls view_sql in
  Mv_core.Matcher.match_spjg ?relaxed_nulls schema ~query:(parse_q query_sql)
    view

let check_matches ?relaxed_nulls ~view_sql ~query_sql () =
  match match_sql ?relaxed_nulls ~view_sql ~query_sql () with
  | Ok s -> s
  | Error r ->
      Alcotest.failf "expected a match, got rejection: %s"
        (Mv_core.Reject.to_string r)

let check_rejects ?relaxed_nulls ~view_sql ~query_sql () =
  match match_sql ?relaxed_nulls ~view_sql ~query_sql () with
  | Ok s ->
      Alcotest.failf "expected a rejection, got substitute:\n%s"
        (Mv_core.Substitute.to_sql s)
  | Error r -> r

(* Execute [query] directly and via [substitute] over a database seeded
   with generated data, and compare bags. The direct result is also held
   to the naive oracle, which shares no code with the executor, so an
   executor bug that shifts both sides alike still fails. *)
let check_equivalent ?(seed = 7) ?(scale = 1) ~(query : Mv_relalg.Spjg.t)
    (s : Mv_core.Substitute.t) =
  let db = Mv_tpch.Datagen.generate ~seed ~scale () in
  let direct = Mv_engine.Exec.execute db query in
  let naive = Naive.execute db query in
  if not (Mv_engine.Relation.same_bag direct naive) then
    Alcotest.failf
      "direct execution differs from the naive oracle.\nquery:\n%s\ndirect \
       (%d rows):\n%s\nnaive (%d rows):\n%s"
      (Mv_relalg.Spjg.to_sql query)
      (Mv_engine.Relation.cardinality direct)
      (Mv_engine.Relation.to_string direct)
      (Mv_engine.Relation.cardinality naive)
      (Mv_engine.Relation.to_string naive);
  let _ = Mv_engine.Exec.materialize db s.Mv_core.Substitute.view in
  let via_view = Mv_engine.Exec.execute_substitute db s in
  if not (Mv_engine.Relation.same_bag direct via_view) then
    Alcotest.failf
      "rewrite is not equivalent.\nquery:\n%s\nsubstitute:\n%s\ndirect \
       (%d rows):\n%s\nvia view (%d rows):\n%s"
      (Mv_relalg.Spjg.to_sql query)
      (Mv_core.Substitute.to_sql s)
      (Mv_engine.Relation.cardinality direct)
      (Mv_engine.Relation.to_string direct)
      (Mv_engine.Relation.cardinality via_view)
      (Mv_engine.Relation.to_string via_view)

let col t c = Col.make t c

let qtest = QCheck_alcotest.to_alcotest

(* Substring search, for loose assertions on rendered text. *)
let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* qcheck case counts: CI-quick runs can shrink property tests via
   MVIEW_QCHECK_COUNT without touching the test sources. *)
let qcheck_count default =
  match Sys.getenv_opt "MVIEW_QCHECK_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default
