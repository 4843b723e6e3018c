(** Differential tests for incremental view maintenance ([Mv_engine.Ivm]):
    every batch-maintained view must end bag-equal to a from-scratch
    rematerialization of the same definition over the same (mutated) base
    tables.

    Two layers:
    - deterministic units over a tiny integer-valued star schema, where
      equality is exact: SPJ projection duplicates, join deltas (including
      a batch writing both join sides at once), count/sum groups with NULL
      inputs, group birth, deletion-to-zero removal, the scalar-aggregate
      single row, statistics refresh, and the error paths;
    - a randomized property over section-5 generator views and TPC-H-style
      data, where float SUM columns compare within a relative tolerance
      (incremental maintenance reorders float additions; integer sums stay
      exact — DESIGN.md §12).

    [MVIEW_IVM_QUICK] shrinks the property case count for the CI quick
    pass. *)

module Spjg = Mv_relalg.Spjg
module Ivm = Mv_engine.Ivm
module DB = Mv_engine.Database
module Exec = Mv_engine.Exec
module Table = Mv_engine.Table
module V = Mv_base.Value
module Expr = Mv_base.Expr
module Pred = Mv_base.Pred

let quick = Sys.getenv_opt "MVIEW_IVM_QUICK" <> None

let col = Mv_base.Col.make

(* ---- the tiny star schema: integer-valued, one nullable column ---- *)

let tiny_schema =
  let open Mv_catalog in
  Schema.make
    ~tables:
      [
        Table_def.make ~name:"dim"
          ~columns:
            [ Column.make "d_id" Mv_base.Dtype.Int;
              Column.make "d_grp" Mv_base.Dtype.Str ]
          ~primary_key:[ "d_id" ] ();
        Table_def.make ~name:"fact"
          ~columns:
            [ Column.make "f_id" Mv_base.Dtype.Int;
              Column.make "f_dim" Mv_base.Dtype.Int;
              Column.make ~nullable:true "f_val" Mv_base.Dtype.Int;
              Column.make "f_qty" Mv_base.Dtype.Int ]
          ~primary_key:[ "f_id" ] ();
      ]
    ~foreign_keys:
      [
        Foreign_key.make ~from_tbl:"fact" ~from_cols:[ "f_dim" ] ~to_tbl:"dim"
          ~to_cols:[ "d_id" ];
      ]

let dim_rows =
  [
    [| V.Int 1; V.Str "a" |]; [| V.Int 2; V.Str "b" |]; [| V.Int 3; V.Str "c" |];
  ]

let fact_rows =
  [
    [| V.Int 1; V.Int 1; V.Int 10; V.Int 2 |];
    [| V.Int 2; V.Int 1; V.Null; V.Int 3 |];
    [| V.Int 3; V.Int 2; V.Int 5; V.Int 1 |];
    [| V.Int 4; V.Int 2; V.Int 7; V.Int 4 |];
  ]

let tiny_db () =
  let db = DB.create tiny_schema in
  Helpers.insert db "dim" dim_rows;
  Helpers.insert db "fact" fact_rows;
  db

let mkview name ~tables ~where ~group_by ~out =
  Mv_core.View.create tiny_schema ~name
    (Spjg.make ~tables ~where ~group_by ~out)

let eq a b = Pred.Cmp (Pred.Eq, a, b)

let c_dgrp = Expr.Col (col "dim" "d_grp")
let c_did = Expr.Col (col "dim" "d_id")
let c_fdim = Expr.Col (col "fact" "f_dim")
let c_fval = Expr.Col (col "fact" "f_val")
let c_fqty = Expr.Col (col "fact" "f_qty")

(* ---- differential scaffolding ---- *)

let view_rows db name = (DB.table_exn db name).Table.rows

(* Apply the batch the rematerialization way: write the base tables, then
   recompute every affected view from scratch. *)
let remat_apply db views (batch : Ivm.batch) =
  DB.write db batch;
  List.iter
    (fun (v : Mv_core.View.t) ->
      if
        List.exists
          (fun (tn, _) -> Mv_util.Sset.mem tn v.Mv_core.View.source_tables)
          batch
      then ignore (Exec.materialize db v))
    views

let check_exact msg dba dbb name =
  let rel rows = { Mv_engine.Relation.cols = []; rows } in
  Alcotest.(check bool) msg true
    (Mv_engine.Relation.same_bag
       (rel (view_rows dba name))
       (rel (view_rows dbb name)))

(* Run the same batches through both arms over twin tiny databases,
   checking the view after every batch; returns the delta-arm engine and
   database for extra assertions. *)
let differential view (batches : Ivm.batch list) =
  let dba = tiny_db () and dbb = tiny_db () in
  ignore (Exec.materialize dba view);
  ignore (Exec.materialize dbb view);
  let ivm = Ivm.create dba in
  Ivm.attach ivm view;
  List.iteri
    (fun i batch ->
      Ivm.apply ivm batch;
      remat_apply dbb [ view ] batch;
      check_exact
        (Printf.sprintf "%s: batch %d maintained = rematerialized"
           view.Mv_core.View.name i)
        dba dbb view.Mv_core.View.name)
    batches;
  (ivm, dba)

(* The entry [stats] holds for [name] equals [Database.table_stats] of the
   view's contents now: every column built at its rebuild, and every
   deferred one forced, which reads none of them. *)
let entry_rebuilt stats db name =
  match Mv_catalog.Stats.table stats name with
  | Some ts -> Mv_catalog.Stats.equal_table ts (DB.table_stats db name)
  | None -> false

(* The entry [stats] holds for [name]; raises when it holds none. *)
let entry stats name = Option.get (Mv_catalog.Stats.table stats name)

let ins rows = { Ivm.ins = rows; del = [] }
let del rows = { Ivm.ins = []; del = rows }
let gcount = Mv_obs.Registry.counter_value Mv_obs.Registry.global
let reused () = gcount "exec.build.reused"

(* ---- SPJ: projection duplicates, bag deletes ---- *)

let test_spj_duplicates () =
  (* projecting f_id away makes duplicates: rows 1 and 2 both emit
     (1, ...) patterns once filtered *)
  let view =
    mkview "iv_spj" ~tables:[ "fact" ]
      ~where:[ Pred.Cmp (Pred.Ge, c_fqty, Expr.Const (V.Int 2)) ]
      ~group_by:None
      ~out:
        [ Spjg.scalar "f_dim" c_fdim; Spjg.scalar "f_qty" c_fqty ]
  in
  let dup = [| V.Int 9; V.Int 1; V.Int 99; V.Int 2 |] in
  let _, dba =
    differential view
      [
        (* two inserts producing identical output rows: the view must gain
           two instances *)
        [ ("fact", ins [ dup; [| V.Int 10; V.Int 1; V.Null; V.Int 2 |] ]) ];
        (* delete one of the two (1, 2) sources: exactly one instance goes *)
        [ ("fact", del [ dup ]) ];
        (* a row below the predicate threshold must not surface *)
        [ ("fact", ins [ [| V.Int 11; V.Int 3; V.Int 1; V.Int 1 |] ]) ];
      ]
  in
  Alcotest.(check int) "two (1,2) instances after the dup batch remain one" 2
    (List.length
       (List.filter (fun r -> r = [| V.Int 1; V.Int 2 |]) (view_rows dba "iv_spj")))

(* ---- join deltas, including both sides written in one batch ---- *)

let test_join_delta () =
  let view =
    mkview "iv_join" ~tables:[ "dim"; "fact" ]
      ~where:[ eq c_fdim c_did ]
      ~group_by:None
      ~out:[ Spjg.scalar "d_grp" c_dgrp; Spjg.scalar "f_qty" c_fqty ]
  in
  ignore
    (differential view
       [
         (* fact-side delta joins existing dim rows *)
         [ ("fact", ins [ [| V.Int 20; V.Int 2; V.Int 1; V.Int 7 |] ]) ];
         (* dim-side delta joins existing fact rows (d_id 1 has two) *)
         [ ("dim", del [ [| V.Int 3; V.Str "c" |] ]) ];
         (* both sides in one batch: the new fact references the new dim —
            only the telescoping cross term produces this pair *)
         [
           ("dim", ins [ [| V.Int 4; V.Str "d" |] ]);
           ("fact", ins [ [| V.Int 21; V.Int 4; V.Int 2; V.Int 8 |] ]);
         ];
         (* and tear the pair down again in one batch *)
         [
           ("fact", del [ [| V.Int 21; V.Int 4; V.Int 2; V.Int 8 |] ]);
           ("dim", del [ [| V.Int 4; V.Str "d" |] ]);
         ];
       ])

(* ---- both sides of an indexed join in one batch ---- *)

(* dim(d_id) and fact(f_dim) are indexed. The fact-delta terms reach the
   new dim rows, physically the live table, through the hash table kept
   over that list: the insert term builds it and the delete term reuses
   it. The dim-delta terms must see fact's old rows with no index or kept
   hash table at all: the live fact index serves the post-batch rows,
   and one built over the old rows would stay in the cache and serve them
   to later reads. *)
let test_indexed_join_both_sides () =
  let db () =
    let db = DB.create tiny_schema in
    Helpers.insert db "dim"
      (List.init 100 (fun i ->
           let d = i + 1 in
           [| V.Int d; V.Str (if d mod 2 = 0 then "even" else "odd") |]));
    Helpers.insert db "fact"
      (List.init 200 (fun i ->
           let f = i + 1 in
           [| V.Int f; V.Int (1 + (f mod 50)); V.Int f; V.Int (f mod 7) |]));
    DB.declare_index db ~table:"dim" ~cols:[ "d_id" ];
    DB.declare_index db ~table:"fact" ~cols:[ "f_dim" ];
    db
  in
  let view =
    mkview "iv_ix" ~tables:[ "dim"; "fact" ]
      ~where:[ eq c_fdim c_did ]
      ~group_by:None
      ~out:[ Spjg.scalar "d_grp" c_dgrp; Spjg.scalar "f_qty" c_fqty ]
  in
  let dba = db () and dbb = db () in
  ignore (Exec.materialize dba view);
  ignore (Exec.materialize dbb view);
  let ivm = Ivm.create dba in
  Ivm.attach ivm view;
  (* built before the batch, so its writes must drop them *)
  ignore (DB.index dba ~table:"dim" ~cols:[ "d_id" ]);
  ignore (DB.index dba ~table:"fact" ~cols:[ "f_dim" ]);
  (* a new dim row and a new fact row joining it: only the fact-delta
     term may produce that pair *)
  let batch =
    [
      ( "dim",
        {
          Ivm.ins = [ [| V.Int 101; V.Str "new" |] ];
          del = [ [| V.Int 99; V.Str "odd" |] ];
        } );
      ( "fact",
        {
          Ivm.ins =
            [
              [| V.Int 1001; V.Int 101; V.Int 1; V.Int 7 |];
              [| V.Int 1002; V.Int 5; V.Null; V.Int 8 |];
            ];
          del = [ [| V.Int 3; V.Int 4; V.Int 3; V.Int 3 |] ];
        } );
    ]
  in
  let before = reused () in
  Ivm.apply ivm batch;
  let delta_reuses = reused () - before in
  remat_apply dbb [ view ] batch;
  check_exact "maintained = rematerialized" dba dbb "iv_ix";
  Alcotest.(check bool) "a fact-delta term reused the live dim build table"
    true (delta_reuses > 0);
  match DB.index dba ~table:"fact" ~cols:[ "f_dim" ] with
  | Some ix ->
      Alcotest.(check int) "the live fact index serves the post-batch rows" 1
        (List.length (Mv_engine.Index.prefix_lookup ix [ V.Int 101 ]))
  | None -> Alcotest.fail "fact(f_dim) is declared"

(* ---- aggregation: counts, NULL-skipping sums, birth and death ---- *)

let agg_view name =
  mkview name ~tables:[ "dim"; "fact" ]
    ~where:[ eq c_fdim c_did ]
    ~group_by:(Some [ c_dgrp ])
    ~out:
      [
        Spjg.scalar "d_grp" c_dgrp;
        Spjg.aggregate "cnt" Spjg.Count_star;
        Spjg.aggregate "sv" (Spjg.Sum c_fval);
        Spjg.aggregate "sq" (Spjg.Sum c_fqty);
      ]

let find_group db name key =
  List.find_opt (fun r -> r.(0) = key) (view_rows db name)

let test_agg_groups () =
  let view = agg_view "iv_agg" in
  let _, dba =
    differential view
      [
        (* count up, sum up: group "a" gains a row with a NULL f_val — the
           count moves, the sum must not *)
        [ ("fact", ins [ [| V.Int 30; V.Int 1; V.Null; V.Int 5 |] ]) ];
        (* delete group "a"'s only non-null f_val contributor: the stored
           SUM returns to NULL while the count stays positive *)
        [ ("fact", del [ [| V.Int 1; V.Int 1; V.Int 10; V.Int 2 |] ]) ];
        (* group birth: dim "c" has no facts until this batch *)
        [ ("fact", ins [ [| V.Int 31; V.Int 3; V.Int 4; V.Int 6 |] ]) ];
        (* deletion to zero: both of group "b"'s facts go; the row must
           vanish, not linger with count 0 *)
        [
          ("fact",
           del
             [
               [| V.Int 3; V.Int 2; V.Int 5; V.Int 1 |];
               [| V.Int 4; V.Int 2; V.Int 7; V.Int 4 |];
             ]);
        ];
      ]
  in
  (match find_group dba "iv_agg" (V.Str "a") with
  | Some r ->
      Alcotest.(check bool) "a: count 2, sum NULL (all inputs NULL)" true
        (r.(1) = V.Int 2 && r.(2) = V.Null && r.(3) = V.Int 8)
  | None -> Alcotest.fail "group a must survive");
  (match find_group dba "iv_agg" (V.Str "c") with
  | Some r ->
      Alcotest.(check bool) "c: born with count 1" true (r.(1) = V.Int 1)
  | None -> Alcotest.fail "group c must be born");
  Alcotest.(check bool) "b: removed at count zero" true
    (find_group dba "iv_agg" (V.Str "b") = None)

(* ---- UPDATE as delete+insert sugar (Ivm.updates) ---- *)

let test_updates () =
  let r1 = [| V.Int 1; V.Int 1; V.Int 10; V.Int 2 |] in
  let r1' = [| V.Int 1; V.Int 1; V.Int 99; V.Int 2 |] in
  let r3 = [| V.Int 3; V.Int 2; V.Int 5; V.Int 1 |] in
  let r3' = [| V.Int 3; V.Int 1; V.Int 5; V.Int 1 |] in
  let r4 = [| V.Int 4; V.Int 2; V.Int 7; V.Int 4 |] in
  (* field mapping: del carries the before-images, ins the after-images;
     identical (no-op) pairs are kept on both sides *)
  let d = Ivm.updates [ (r1, r1'); (r4, r4) ] in
  Alcotest.(check bool) "del = befores, ins = afters" true
    (d.Ivm.del = [ r1; r4 ] && d.Ivm.ins = [ r1'; r4 ]);
  let view = agg_view "iv_upd" in
  let _, dba =
    differential view
      [
        (* in-place value change: group "a"'s sum must move 10 -> 99 *)
        [ ("fact", Ivm.updates [ (r1, r1') ]) ];
        (* cross-group move: fact 3 migrates from dim 2 to dim 1; a no-op
           pair rides along and must change nothing *)
        [ ("fact", Ivm.updates [ (r3, r3'); (r4, r4) ]) ];
      ]
  in
  (match find_group dba "iv_upd" (V.Str "a") with
  | Some r ->
      Alcotest.(check bool) "a: count 3, sum 99+5, qty 2+3+1" true
        (r.(1) = V.Int 3 && r.(2) = V.Int 104 && r.(3) = V.Int 6)
  | None -> Alcotest.fail "group a must survive the updates");
  match find_group dba "iv_upd" (V.Str "b") with
  | Some r ->
      Alcotest.(check bool) "b: down to fact 4 only" true
        (r.(1) = V.Int 1 && r.(2) = V.Int 7 && r.(3) = V.Int 4)
  | None -> Alcotest.fail "group b must keep fact 4"

(* ---- the scalar aggregate: its single row never dies ---- *)

let test_scalar_agg () =
  let view =
    mkview "iv_scalar" ~tables:[ "fact" ] ~where:[] ~group_by:(Some [])
      ~out:
        [
          Spjg.aggregate "cnt" Spjg.Count_star;
          Spjg.aggregate "sv" (Spjg.Sum c_fval);
        ]
  in
  let _, dba =
    differential view
      [
        [ ("fact", ins [ [| V.Int 40; V.Int 1; V.Int 100; V.Int 1 |] ]) ];
        (* empty the table entirely: SQL still returns one row,
           count 0 and a NULL sum *)
        [
          ("fact",
           del ([ [| V.Int 40; V.Int 1; V.Int 100; V.Int 1 |] ] @ fact_rows));
        ];
      ]
  in
  match view_rows dba "iv_scalar" with
  | [ r ] ->
      Alcotest.(check bool) "count 0, sum NULL over empty input" true
        (r.(0) = V.Int 0 && r.(1) = V.Null)
  | rows ->
      Alcotest.failf "scalar aggregate must keep exactly one row, got %d"
        (List.length rows)

(* ---- view-level statistics refresh ---- *)

let test_stats_refresh () =
  let view = agg_view "iv_stats" in
  let dba = tiny_db () in
  ignore (Exec.materialize dba view);
  let stats0 = DB.stats dba in
  let ivm = Ivm.create dba in
  Ivm.attach ivm view;
  Ivm.apply ivm
    [ ("fact", ins [ [| V.Int 50; V.Int 3; V.Int 2; V.Int 9 |] ]) ];
  (* the descriptor's row count tracks the maintained contents (group "c"
     was just born) *)
  Alcotest.(check int) "descriptor row count tracks the delta"
    (DB.row_count dba "iv_stats")
    view.Mv_core.View.row_count;
  (* view statistics are rebuilt on drift: one changed row (the birth)
     leaves the view under its threshold, 50 changed rows plus a tenth of
     the 2 rows it held at attach, so the entry it has stays *)
  Alcotest.(check (list string)) "one changed row is not due" []
    (Ivm.dirty_views ivm);
  let stats1 = Ivm.refresh_stats ivm stats0 in
  Alcotest.(check bool) "an entry not due is the one given" true
    (entry stats1 "iv_stats" == entry stats0 "iv_stats");
  (* each insert into group "a" changes its row: 2 more changed rows, so
     the 25th brings the count to 51, past the threshold *)
  let stats2 = ref stats1 in
  for i = 1 to 25 do
    Ivm.apply ivm
      [ ("fact", ins [ [| V.Int (50 + i); V.Int 1; V.Int i; V.Int 1 |] ]) ];
    Alcotest.(check (list string))
      (Printf.sprintf "due after %d changed rows" (1 + (2 * i)))
      (if i = 25 then [ "iv_stats" ] else [])
      (Ivm.dirty_views ivm);
    stats2 := Ivm.refresh_stats ivm !stats2
  done;
  let stats2 = !stats2 in
  Alcotest.(check int) "stats row count tracks post-delta cardinality"
    (DB.row_count dba "iv_stats")
    (Mv_catalog.Stats.row_count stats2 "iv_stats");
  Alcotest.(check bool) "the due entry equals a rebuild" true
    (entry_rebuilt stats2 dba "iv_stats");
  Alcotest.(check (list string)) "the rebuild clears the dirty set" []
    (Ivm.dirty_views ivm);
  (* untouched base entries pass through unchanged *)
  Alcotest.(check bool) "base entries untouched" true
    (entry stats2 "dim" == entry stats0 "dim")

(* ---- error paths ---- *)

let test_errors () =
  let view = agg_view "iv_err" in
  let dba = tiny_db () in
  let ivm = Ivm.create dba in
  Alcotest.check_raises "attach requires materialization"
    (Invalid_argument "Ivm.attach: view iv_err is not materialized")
    (fun () -> Ivm.attach ivm view);
  ignore (Exec.materialize dba view);
  Ivm.attach ivm view;
  Alcotest.check_raises "no double attach"
    (Invalid_argument "Ivm.attach: view iv_err already attached") (fun () ->
      Ivm.attach ivm view);
  Alcotest.check_raises "a view's own table cannot be written"
    (DB.Invalid_batch "Ivm.apply: iv_err is an attached view's table")
    (fun () -> Ivm.apply ivm [ ("iv_err", ins [ [||] ]) ]);
  Alcotest.check_raises "an unknown table cannot be written"
    (DB.Invalid_batch "Database.write: unknown table nosuch") (fun () ->
      Ivm.apply ivm [ ("nosuch", ins [ [| V.Int 1 |] ]) ]);
  Alcotest.check_raises "arity is validated before any write"
    (DB.Invalid_batch "Database.write: row arity mismatch for fact") (fun () ->
      Ivm.apply ivm [ ("fact", ins [ [| V.Int 1 |] ]) ]);
  (* an insert followed by the delete of an absent row: nothing is
     written, not even the insert *)
  let rows0 = view_rows dba "fact" in
  Alcotest.check_raises "deleting an absent row is rejected whole"
    (DB.Invalid_batch "Database.write: a delete names a row fact does not hold")
    (fun () ->
      Ivm.apply ivm
        [
          ( "fact",
            {
              Ivm.ins = [ [| V.Int 5; V.Int 1; V.Int 1; V.Int 1 |] ];
              del = [ [| V.Int 99; V.Int 1; V.Null; V.Int 1 |] ];
            } );
        ]);
  Alcotest.(check bool) "the rejected insert left fact as it was" true
    (view_rows dba "fact" == rows0);
  Alcotest.check_raises "a row deleted more often than held is rejected"
    (DB.Invalid_batch "Database.write: a delete names a row fact does not hold")
    (fun () ->
      let r = List.hd fact_rows in
      Ivm.apply ivm [ ("fact", del [ r; r ]) ]);
  (* a batch naming fact twice (each delta valid alone), an inserted value
     that does not fit its column: nothing is written, neither the base
     table nor the view, and no statistics go dirty *)
  let view0 = view_rows dba "iv_err" in
  List.iter
    (fun (what, batch, msg) ->
      Alcotest.check_raises what (DB.Invalid_batch ("Database.write: " ^ msg))
        (fun () -> Ivm.apply ivm batch);
      Alcotest.(check bool) (what ^ ": nothing written") true
        (view_rows dba "fact" == rows0
        && view_rows dba "iv_err" == view0
        && Ivm.dirty_views ivm = []))
    [
      ( "a table named twice is rejected",
        [
          ("fact", del [ List.nth fact_rows 0 ]);
          ("fact", del [ List.nth fact_rows 2 ]);
        ],
        "fact is named twice" );
      ( "a mistyped value is rejected",
        [ ("fact", ins [ [| V.Int 5; V.Int 1; V.Int 1; V.Str "x" |] ]) ],
        "'x' does not fit NOT NULL integer column fact.f_qty" );
      ( "a NULL in a NOT NULL column is rejected",
        [ ("fact", ins [ [| V.Null; V.Int 1; V.Int 1; V.Int 1 |] ]) ],
        "NULL does not fit NOT NULL integer column fact.f_id" );
    ];
  Ivm.detach ivm "iv_err";
  Alcotest.(check int) "detached" 0 (List.length (Ivm.attached ivm))

(* ---- attach links each stored row to its group, or refuses ---- *)

(* The grouped view's stored rows, edited so they are no longer one per
   group: a grouping column changed to a key no group has, a row removed
   (its group has none) and a row duplicated (two rows of one group).
   Attach raises, attaches nothing (another view attached before stays
   the only one) and leaves the stored list physically as the edit left
   it; with the rows put back, the view attaches. A batch no group sees
   (a fact row joining no dim row) then leaves the list physically as it
   was. *)
let test_attach_mismatch () =
  List.iter
    (fun (what, edit) ->
      let db = tiny_db () in
      let other = agg_view "iv_linked" and view = agg_view "iv_mismatch" in
      ignore (Exec.materialize db other);
      ignore (Exec.materialize db view);
      let ivm = Ivm.create db in
      Ivm.attach ivm other;
      let tbl = DB.table_exn db "iv_mismatch" in
      let rows0 = tbl.Table.rows in
      tbl.Table.rows <- edit rows0;
      let rows = tbl.Table.rows and attached = Ivm.attached ivm in
      Alcotest.check_raises (what ^ ": attach refuses")
        (Ivm.Inconsistent "iv_mismatch: stored rows are not one per group")
        (fun () -> Ivm.attach ivm view);
      Alcotest.(check bool) (what ^ ": nothing attached") true
        (List.equal ( == ) (Ivm.attached ivm) attached);
      Alcotest.(check bool) (what ^ ": the stored list is as it was") true
        (tbl.Table.rows == rows);
      tbl.Table.rows <- rows0;
      Ivm.attach ivm view;
      Ivm.apply ivm
        [ ("fact", ins [ [| V.Int 60; V.Int 99; V.Int 1; V.Int 1 |] ]) ];
      Alcotest.(check bool) (what ^ ": a batch no group sees keeps the list")
        true
        (tbl.Table.rows == rows0))
    [
      ( "a grouping column changed",
        function
        | r :: rest ->
            let r = Array.copy r in
            r.(0) <- V.Str "z";
            r :: rest
        | [] -> [] );
      ("a row removed", List.tl);
      ("a row duplicated", fun rows -> List.hd rows :: rows);
    ]

(* ---- the build-table cache cannot serve stale rows ---- *)

(* Unindexed hash joins, each building on a whole stored table: fact, dim
   (statistics calling fact smaller put it first) and the SPJ view
   iv_cache. [Spjg.make] sorts the FROM list, and without statistics the
   executor joins in that order, building on the second table. *)
let join_fact, join_dim, join_view =
  let out = [ Spjg.scalar "d_grp" c_dgrp; Spjg.scalar "f_qty" c_fqty ] in
  let fact_dim =
    Spjg.make ~tables:[ "dim"; "fact" ] ~where:[ eq c_fdim c_did ]
      ~group_by:None ~out
  in
  let sized n = { Mv_catalog.Stats.row_count = n; columns = [] } in
  ( (fact_dim, None),
    ( fact_dim,
      Some
        (Mv_catalog.Stats.of_list [ ("dim", sized 1000); ("fact", sized 1) ])
    ),
    ( Spjg.make ~tables:[ "dim"; "iv_cache" ]
        ~where:[ eq (Expr.Col (col "iv_cache" "f_dim")) c_did ]
        ~group_by:None
        ~out:
          [
            Spjg.scalar "d_grp" c_dgrp;
            Spjg.scalar "f_qty" (Expr.Col (col "iv_cache" "f_qty"));
          ],
      None ) )

(* Each join equals the naive oracle and counts as a hash join; returns
   how many reused a cached build table. *)
let joins_match_naive what db queries =
  let r0 = reused () and h0 = gcount "exec.join.strategy.hash" in
  List.iteri
    (fun i (q, stats) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: join %d equals the naive oracle" what i)
        true
        (Mv_engine.Relation.same_bag
           (Exec.execute ?stats db q)
           (Naive.execute db q)))
    queries;
  Alcotest.(check int)
    (what ^ ": every join counts as a hash join")
    (List.length queries)
    (gcount "exec.join.strategy.hash" - h0);
  reused () - r0

(* Every cached build table describes the row list its table holds now. *)
let cache_is_live db =
  Hashtbl.fold
    (fun (table, _) (b : DB.built) ok ->
      ok && b.DB.b_rows == (DB.table_exn db table).Table.rows)
    db.DB.build_cache true

let test_build_cache_writes () =
  let view =
    mkview "iv_cache" ~tables:[ "fact" ]
      ~where:[ Pred.Cmp (Pred.Ge, c_fqty, Expr.Const (V.Int 2)) ]
      ~group_by:None
      ~out:[ Spjg.scalar "f_dim" c_fdim; Spjg.scalar "f_qty" c_fqty ]
  in
  let db = tiny_db () in
  ignore (Exec.materialize db view);
  let ivm = Ivm.create db in
  Ivm.attach ivm view;
  let queries = [ join_fact; join_dim; join_view ] in
  ignore (joins_match_naive "first run" db queries);
  Alcotest.(check int) "unwritten tables' build tables are reused" 3
    (joins_match_naive "second run" db queries);
  let row = [| V.Int 60; V.Int 1; V.Int 6; V.Int 6 |] in
  List.iter
    (fun (what, write, rebuilt) ->
      write ();
      Alcotest.(check int)
        (what ^ ": only the unwritten tables reuse")
        (3 - rebuilt)
        (joins_match_naive what db queries))
    [
      ("Database.write inserting", (fun () -> DB.write db [ ("fact", ins [ row ]) ]), 1);
      ("Database.write deleting", (fun () -> DB.write db [ ("fact", del [ row ]) ]), 1);
      ( "Ivm.apply on a base table",
        (fun () ->
          Ivm.apply ivm [ ("dim", ins [ [| V.Int 5; V.Str "e" |] ]) ]),
        1 );
      ( "Ivm.apply rewriting a view's rows",
        (fun () ->
          Ivm.apply ivm
            [ ("fact", { Ivm.ins = [ row ]; del = [ List.hd fact_rows ] }) ]),
        2 );
    ]

(* Both sides of an unindexed join written in one batch, with both build
   tables cached beforehand, under an aggregate and an SPJ view. The
   fact-delta terms read dim's new rows, the live list: the first view's
   terms build and cache it, the second's reuse it. The dim-delta terms
   read fact's old rows, a different list from the live one, and their
   five-row dim slice outnumbers those four rows, so the slice becomes
   the build side: in the second view a live dim entry exists, and the
   slice must not be served it. So after each batch the cache holds only
   live lists, and of the two reads only the one building on dim
   reuses. *)
let test_build_cache_two_tables () =
  let views =
    [
      agg_view "iv_agg2";
      mkview "iv_spj2" ~tables:[ "dim"; "fact" ]
        ~where:[ eq c_fdim c_did ]
        ~group_by:None
        ~out:[ Spjg.scalar "d_grp" c_dgrp; Spjg.scalar "f_qty" c_fqty ];
    ]
  in
  let new_dims =
    List.init 5 (fun i ->
        [| V.Int (4 + i); V.Str (String.make 1 "defgh".[i]) |])
  in
  let dba = tiny_db () and dbb = tiny_db () in
  let ivm = Ivm.create dba in
  List.iter
    (fun v ->
      ignore (Exec.materialize dba v);
      ignore (Exec.materialize dbb v);
      Ivm.attach ivm v)
    views;
  List.iteri
    (fun i batch ->
      ignore (joins_match_naive "warm" dba [ join_fact; join_dim ]);
      Alcotest.(check int)
        (Printf.sprintf "batch %d: both build tables cached before it" i)
        2
        (joins_match_naive "warm again" dba [ join_fact; join_dim ]);
      Ivm.apply ivm batch;
      Alcotest.(check bool)
        (Printf.sprintf "batch %d: the cache holds only live lists" i)
        true (cache_is_live dba);
      remat_apply dbb views batch;
      List.iter
        (fun (v : Mv_core.View.t) ->
          check_exact
            (Printf.sprintf "batch %d: %s maintained = rematerialized" i
               v.Mv_core.View.name)
            dba dbb v.Mv_core.View.name)
        views;
      Alcotest.(check int)
        (Printf.sprintf "batch %d: the read building on dim reuses" i)
        1
        (joins_match_naive "after the batch" dba [ join_fact; join_dim ]))
    [
      [
        ("dim", ins new_dims);
        ( "fact",
          {
            Ivm.ins = [ [| V.Int 21; V.Int 4; V.Int 2; V.Int 8 |] ];
            del = [ List.nth fact_rows 2 ];
          } );
      ];
      [
        ("fact", del [ [| V.Int 21; V.Int 4; V.Int 2; V.Int 8 |] ]);
        ("dim", del new_dims);
      ];
    ]

(* A one-table batch over a view joining an unindexed dimension: the
   insert and the delete term each hash dim's whole (unwritten) row
   list, so at least the second reuses the first's table. *)
let test_build_cache_reuse () =
  let view = agg_view "iv_reuse" in
  let dba = tiny_db () and dbb = tiny_db () in
  ignore (Exec.materialize dba view);
  ignore (Exec.materialize dbb view);
  let ivm = Ivm.create dba in
  Ivm.attach ivm view;
  let batch =
    [
      ( "fact",
        {
          Ivm.ins = [ [| V.Int 70; V.Int 2; V.Int 1; V.Int 1 |] ];
          del = [ List.hd fact_rows ];
        } );
    ]
  in
  let r0 = reused () and h0 = gcount "exec.join.strategy.hash" in
  Ivm.apply ivm batch;
  Alcotest.(check bool) "a delta term reused dim's build table" true
    (reused () > r0);
  Alcotest.(check int) "both terms count as hash joins" 2
    (gcount "exec.join.strategy.hash" - h0);
  remat_apply dbb [ view ] batch;
  check_exact "maintained = rematerialized" dba dbb "iv_reuse"

(* ---- estimation error: only reads of the tables statistics describe ---- *)

(* Delta terms order their joins by row-count-only statistics of their
   slices, which describe no table: maintaining a join view adds no
   [exec.estimation.qerror] sample, while a plan run with statistics
   still adds them. *)
let test_qerror_samples () =
  let samples () =
    Mv_obs.Instrument.count
      (Mv_obs.Registry.histogram Mv_obs.Registry.global
         "exec.estimation.qerror")
  in
  let view = agg_view "iv_qerror" in
  let db = tiny_db () in
  ignore (Exec.materialize db view);
  let ivm = Ivm.create db in
  Ivm.attach ivm view;
  let before = samples () in
  Ivm.apply ivm
    [
      ( "fact",
        {
          Ivm.ins = [ [| V.Int 80; V.Int 2; V.Int 1; V.Int 1 |] ];
          del = [ List.hd fact_rows ];
        } );
    ];
  Alcotest.(check int) "maintenance adds no sample" before (samples ());
  let q =
    Spjg.make ~tables:[ "dim"; "fact" ] ~where:[ eq c_fdim c_did ]
      ~group_by:None
      ~out:[ Spjg.scalar "d_grp" c_dgrp; Spjg.scalar "f_qty" c_fqty ]
  in
  let stats = DB.stats db in
  let plan =
    (Mv_opt.Optimizer.optimize (Mv_core.Registry.create tiny_schema) stats q)
      .Mv_opt.Optimizer.plan
  in
  ignore (Mv_opt.Plan_exec.execute ~stats db q plan);
  Alcotest.(check bool) "a plan run with statistics adds samples" true
    (samples () > before)

(* ---- rebuilt statistics over Ints beside equal Floats ---- *)

(* A Float column holding Ints and the numerically equal Floats (one run
   each under [Value.order]), -0.0 beside 0.0, and NULLs, under an SPJ
   view and a view grouping on it: after every one of 200 seeded batches
   each view equals its recomputation, and its statistics entry after the
   refresh is the one before it when the view was not due, or equals a
   rebuild from its contents, ndv included, when it was. Each view is
   rebuilt at least once, so the mixed runs reach the builder. *)
let test_mixed_rebuilds () =
  let schema =
    let open Mv_catalog in
    Schema.make
      ~tables:
        [
          Table_def.make ~name:"m"
            ~columns:
              [
                Column.make "m_id" Mv_base.Dtype.Int;
                Column.make ~nullable:true "m_x" Mv_base.Dtype.Float;
                Column.make "m_g" Mv_base.Dtype.Int;
              ]
            ~primary_key:[ "m_id" ] ();
        ]
      ~foreign_keys:[]
  in
  let cx = Expr.Col (col "m" "m_x") and cg = Expr.Col (col "m" "m_g") in
  let views =
    [
      Mv_core.View.create schema ~name:"iv_mx"
        (Spjg.make ~tables:[ "m" ] ~where:[] ~group_by:None
           ~out:[ Spjg.scalar "m_x" cx; Spjg.scalar "m_g" cg ]);
      Mv_core.View.create schema ~name:"iv_mg"
        (Spjg.make ~tables:[ "m" ] ~where:[] ~group_by:(Some [ cx ])
           ~out:
             [
               Spjg.scalar "m_x" cx;
               Spjg.aggregate "cnt" Spjg.Count_star;
               Spjg.aggregate "sg" (Spjg.Sum cg);
             ]);
    ]
  in
  let prng = Mv_util.Prng.create 5 in
  let int n = Mv_util.Prng.int prng n in
  let value () =
    match int 6 with
    | 0 -> V.Int (int 4)
    | 1 -> V.Float (float_of_int (int 4))
    | 2 -> V.Float (-0.0)
    | 3 -> V.Float 0.5
    | 4 -> V.Null
    | _ -> V.Int 0
  in
  let next = ref 0 in
  let row () =
    incr next;
    [| V.Int !next; value (); V.Int (int 3) |]
  in
  let db = DB.create schema in
  Helpers.insert db "m" (List.init 12 (fun _ -> row ()));
  List.iter (fun v -> ignore (Exec.materialize db v)) views;
  let ivm = Ivm.create db in
  List.iter (Ivm.attach ivm) views;
  let stats = ref (DB.stats db) in
  let rebuilds = Hashtbl.create 2 in
  for b = 1 to 200 do
    let ins = List.init (int 4) (fun _ -> row ()) in
    let k = int 4 in
    let del =
      List.filteri (fun i _ -> i < k)
        (Mv_util.Prng.shuffle prng (DB.table_exn db "m").Table.rows)
    in
    Ivm.apply ivm [ ("m", { Ivm.ins; del }) ];
    let due = Ivm.dirty_views ivm and before = !stats in
    stats := Ivm.refresh_stats ivm !stats;
    List.iter
      (fun (v : Mv_core.View.t) ->
        let name = v.Mv_core.View.name in
        Alcotest.(check bool)
          (Printf.sprintf "batch %d: %s equals its recomputation" b name)
          true
          (Mv_engine.Relation.same_bag
             { Mv_engine.Relation.cols = []; rows = view_rows db name }
             { (Exec.execute db (Mv_core.View.spjg v)) with cols = [] });
        if List.mem name due then begin
          Hashtbl.replace rebuilds name ();
          Alcotest.(check bool)
            (Printf.sprintf "batch %d: %s statistics equal a rebuild" b name)
            true
            (entry_rebuilt !stats db name)
        end
        else
          Alcotest.(check bool)
            (Printf.sprintf "batch %d: %s statistics are kept" b name)
            true
            (entry !stats name == entry before name))
      views
  done;
  List.iter
    (fun (v : Mv_core.View.t) ->
      Alcotest.(check bool)
        (v.Mv_core.View.name ^ " was rebuilt at least once")
        true
        (Hashtbl.mem rebuilds v.Mv_core.View.name))
    views

(* ---- statistics rebuilt as a base table grows ---- *)

(* Insert-only batches of 5 rows double a 100-row table under an SPJ view
   of every row (5 stored rows added per batch) and a view grouping it
   into 20 groups (5 groups change their row per batch: 10 stored rows
   removed plus added). The test counts each view's changed rows itself:
   a view is due exactly when its count passes 50 plus a tenth of its
   rows at its last build. Until then [dirty_views] leaves it out and
   [refresh_stats] returns the entry it was given; the batch that crosses
   lists it, its refreshed entry equals a rebuild, and the count starts
   over, so the next batch leaves it not due. The descriptors' row counts
   stay exact on every batch. *)
let test_growth_rebuilds () =
  let schema =
    let open Mv_catalog in
    Schema.make
      ~tables:
        [
          Table_def.make ~name:"g"
            ~columns:
              [
                Column.make "g_id" Mv_base.Dtype.Int;
                Column.make "g_k" Mv_base.Dtype.Int;
                Column.make "g_v" Mv_base.Dtype.Int;
              ]
            ~primary_key:[ "g_id" ] ();
        ]
      ~foreign_keys:[]
  in
  let c name = Expr.Col (col "g" name) in
  let views =
    [
      Mv_core.View.create schema ~name:"iv_gs"
        (Spjg.make ~tables:[ "g" ] ~where:[] ~group_by:None
           ~out:
             [
               Spjg.scalar "g_id" (c "g_id"); Spjg.scalar "g_k" (c "g_k");
               Spjg.scalar "g_v" (c "g_v");
             ]);
      Mv_core.View.create schema ~name:"iv_ga"
        (Spjg.make ~tables:[ "g" ] ~where:[] ~group_by:(Some [ c "g_k" ])
           ~out:
             [
               Spjg.scalar "g_k" (c "g_k");
               Spjg.aggregate "cnt" Spjg.Count_star;
               Spjg.aggregate "sv" (Spjg.Sum (c "g_v"));
             ]);
    ]
  in
  let row i = [| V.Int i; V.Int (i mod 20); V.Int (i * 7 mod 13) |] in
  let db = DB.create schema in
  Helpers.insert db "g" (List.init 100 row);
  List.iter (fun v -> ignore (Exec.materialize db v)) views;
  let ivm = Ivm.create db in
  List.iter (Ivm.attach ivm) views;
  let stats = ref (DB.stats db) in
  (* per view: stored rows changed per batch, changed since the last
     build, rows at the last build, rebuilds *)
  let model =
    [
      ("iv_gs", 5, ref 0, ref 100, ref 0); ("iv_ga", 10, ref 0, ref 20, ref 0);
    ]
  in
  for b = 1 to 20 do
    Ivm.apply ivm
      [ ("g", ins (List.init 5 (fun j -> row (100 + (5 * (b - 1)) + j)))) ];
    List.iter (fun (_, per, changed, _, _) -> changed := !changed + per) model;
    let due =
      List.filter_map
        (fun (name, _, changed, built, _) ->
          if !changed > 50 + (!built / 10) then Some name else None)
        model
    in
    Alcotest.(check (list string))
      (Printf.sprintf "batch %d: the due views" b)
      due (Ivm.dirty_views ivm);
    let before = !stats in
    stats := Ivm.refresh_stats ivm !stats;
    List.iter
      (fun (name, _, changed, built, rebuilds) ->
        if List.mem name due then begin
          Alcotest.(check bool)
            (Printf.sprintf "batch %d: %s's entry equals a rebuild" b name)
            true
            (entry_rebuilt !stats db name);
          changed := 0;
          built := DB.row_count db name;
          incr rebuilds
        end
        else
          Alcotest.(check bool)
            (Printf.sprintf "batch %d: %s's entry is the one given" b name)
            true
            (entry !stats name == entry before name))
      model;
    List.iter
      (fun (v : Mv_core.View.t) ->
        Alcotest.(check int)
          (Printf.sprintf "batch %d: %s's row count" b v.Mv_core.View.name)
          (DB.row_count db v.Mv_core.View.name)
          v.Mv_core.View.row_count)
      views
  done;
  Alcotest.(check int) "the base table doubled" 200 (DB.row_count db "g");
  Alcotest.(check (list (pair string int)))
    "rebuilds per view"
    [ ("iv_gs", 1); ("iv_ga", 3) ]
    (List.map (fun (name, _, _, _, rebuilds) -> (name, !rebuilds)) model)

(* ---- statistics rebuilt on read demand ---- *)

(* An SPJ view of every fact row. Its entry from [Database.stats] is built
   and unread; the test reads its [v_qty] column, then inserts 60 fact
   rows (60 changed rows, past 50 plus a tenth of 4) with new quantities
   and values. The rebuild builds [v_qty], which it counts, and defers
   the other columns; [v_val]'s first read builds it from the view's
   contents, which it counts, and equals [Database.table_stats]' column,
   not the one before the inserts. A second push past the threshold
   rebuilds [v_qty], read before the first rebuild only, and [v_val],
   read since, and defers the rest. *)
let test_read_demand () =
  let view =
    mkview "iv_demand" ~tables:[ "fact" ] ~where:[] ~group_by:None
      ~out:
        [
          Spjg.scalar "v_id" (Expr.Col (col "fact" "f_id"));
          Spjg.scalar "v_dim" c_fdim; Spjg.scalar "v_val" c_fval;
          Spjg.scalar "v_qty" c_fqty;
        ]
  in
  let db = tiny_db () in
  ignore (Exec.materialize db view);
  let ivm = Ivm.create db in
  Ivm.attach ivm view;
  let stats0 = DB.stats db in
  let columns stats =
    (Option.get (Mv_catalog.Stats.table stats "iv_demand"))
      .Mv_catalog.Stats.columns
  in
  let built stats =
    List.filter_map
      (fun (c, cell) -> if Mv_catalog.Stats.is_built cell then Some c else None)
      (columns stats)
  in
  let read stats c =
    Option.get (Mv_catalog.Stats.col_stats stats (col "iv_demand" c))
  in
  (* a column's statistics, forced, which reads nothing *)
  let peek stats c = Mv_catalog.Stats.force (List.assoc c (columns stats)) in
  let now c =
    peek
      (Mv_catalog.Stats.of_list
         [ ("iv_demand", DB.table_stats db "iv_demand") ])
      c
  in
  let counted () =
    (gcount "ivm.stats.columns_built", gcount "stats.columns.built_on_read")
  in
  let row first i =
    let id = first + i in
    [| V.Int id; V.Int (1 + (i mod 3)); V.Int (100 + i); V.Int id |]
  in
  let push first = Ivm.apply ivm [ ("fact", ins (List.init 60 (row first))) ] in
  ignore (read stats0 "v_qty");
  push 100;
  Alcotest.(check (list string)) "due" [ "iv_demand" ] (Ivm.dirty_views ivm);
  let b0, r0 = counted () in
  let stats1 = Ivm.refresh_stats ivm stats0 in
  let b1, r1 = counted () in
  Alcotest.(check (list string)) "the read column is built at the rebuild"
    [ "v_qty" ] (built stats1);
  Alcotest.(check int) "one column built at the rebuild" 1 (b1 - b0);
  Alcotest.(check int) "none built on a read" 0 (r1 - r0);
  Alcotest.(check bool) "the built column equals table_stats'" true
    (peek stats1 "v_qty" = now "v_qty");
  (* an unread column: deferred, its first read builds it *)
  let v_val = read stats1 "v_val" in
  let _, r2 = counted () in
  Alcotest.(check bool) "an unread column's first read equals table_stats'"
    true
    (v_val = now "v_val");
  Alcotest.(check bool) "and not the entry's before the inserts" true
    (v_val <> peek stats0 "v_val");
  Alcotest.(check int) "one column built on a read" 1 (r2 - r1);
  ignore (read stats1 "v_val");
  let _, r3 = counted () in
  Alcotest.(check int) "a second read builds nothing" 0 (r3 - r2);
  push 200;
  let b3, _ = counted () in
  let stats2 = Ivm.refresh_stats ivm stats1 in
  let b4, r4 = counted () in
  Alcotest.(check (list string))
    "the second rebuild builds every column read so far"
    [ "v_val"; "v_qty" ] (built stats2);
  Alcotest.(check int) "two columns built at the second rebuild" 2 (b4 - b3);
  Alcotest.(check int) "none built on a read since" 0 (r4 - r3);
  Alcotest.(check bool) "the second entry equals a rebuild" true
    (entry_rebuilt stats2 db "iv_demand");
  Alcotest.(check (list string)) "the checks read nothing"
    [ "v_val"; "v_qty" ]
    (List.filter_map
       (fun (c, cell) ->
         if Mv_catalog.Stats.was_read cell then Some c else None)
       (columns stats2));
  Alcotest.(check (list string)) "nor built anything" [ "v_val"; "v_qty" ]
    (built stats2)

(* Two domains make the first read of one deferred column at once: the
   builder holds the first reader until the second is inside it too, so
   both run it. Both get equal statistics, equal to the builder's, and
   neither raises (a [Lazy.t] forced from a second domain while the first
   forces it raises). *)
let test_deferred_race () =
  let values = List.init 500 (fun i -> V.Int (i mod 37)) in
  let inside = Atomic.make 0 in
  let build () =
    Atomic.incr inside;
    (* bounded, so a reader that never arrives fails the check below
       instead of hanging the suite *)
    let deadline = Mv_obs.Instrument.now_wall () +. 10.0 in
    while Atomic.get inside < 2 && Mv_obs.Instrument.now_wall () < deadline do
      Domain.cpu_relax ()
    done;
    Mv_catalog.Stats.build_column values
  in
  let stats =
    Mv_catalog.Stats.of_list
      [ ("t", Mv_catalog.Stats.rebuild None ~row_count:500 [ ("c", build) ]) ]
  in
  let ready = Atomic.make 0 in
  let read () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    Mv_catalog.Stats.col_stats stats (col "t" "c")
  in
  let other = Domain.spawn read in
  let mine = read () in
  let theirs = Domain.join other in
  Alcotest.(check int) "both domains ran the builder" 2 (Atomic.get inside);
  Alcotest.(check bool) "both read the builder's statistics" true
    (mine = Some (Mv_catalog.Stats.build_column values) && theirs = mine)

(* ---- the randomized differential property ---- *)

let tpch_schema = Helpers.schema

let gen_views =
  lazy
    (List.filter_map
       (fun (name, spjg) ->
         match Mv_core.View.create tpch_schema ~name spjg with
         | v -> Some v
         | exception Mv_core.View.Rejected _ -> None)
       (Mv_workload.Generator.views ~seed:909 tpch_schema
          (Mv_tpch.Datagen.synthetic_stats ())
          50))

(* Float SUM columns may drift by rounding between the incremental and the
   from-scratch arm; compare with a relative tolerance. *)
let value_close a b =
  match (a, b) with
  | V.Float x, V.Float y ->
      x = y || abs_float (x -. y) <= 1e-9 *. (abs_float x +. abs_float y +. 1.0)
  | _ -> V.order a b = 0

let bag_close rows_a rows_b =
  List.length rows_a = List.length rows_b
  && List.for_all2
       (fun (x : V.t array) y ->
         Array.length x = Array.length y && Array.for_all2 value_close x y)
       (List.sort Mv_engine.Relation.row_order rows_a)
       (List.sort Mv_engine.Relation.row_order rows_b)

(* Mutate one random Int column of the row — shared by the insert and
   update batch generators below. *)
let mutate_row prng (tbl : Table.t) row =
  let row = Array.copy row in
  let ints =
    tbl.Table.def.Mv_catalog.Table_def.columns
    |> List.mapi (fun i (c : Mv_catalog.Column.t) -> (i, c))
    |> List.filter (fun (_, (c : Mv_catalog.Column.t)) ->
           c.Mv_catalog.Column.dtype = Mv_base.Dtype.Int)
  in
  (match ints with
  | [] -> ()
  | _ ->
      let i, _ = Mv_util.Prng.pick prng ints in
      row.(i) <- V.Int (Mv_util.Prng.int prng 1000));
  row

(* A random batch over one of the view's source tables: duplicates of
   existing rows (foreign keys keep holding — join deltas fire), mutated
   duplicates (fresh values birth new groups), and deletes of distinct
   existing row instances. *)
let random_batch prng db (view : Mv_core.View.t) : Ivm.batch =
  let tn = Mv_util.Prng.pick prng (Mv_util.Sset.elements view.Mv_core.View.source_tables) in
  let tbl = DB.table_exn db tn in
  let rows = tbl.Table.rows in
  let n = List.length rows in
  if n = 0 then []
  else begin
    let pick () = List.nth rows (Mv_util.Prng.int prng n) in
    let mutate = mutate_row prng tbl in
    let n_ins = 1 + Mv_util.Prng.int prng 4 in
    let ins =
      List.init n_ins (fun _ ->
          let r = pick () in
          if Mv_util.Prng.chance prng 0.3 then mutate r else r)
    in
    let n_del = Mv_util.Prng.int prng (1 + (n / 4)) in
    let del =
      List.filteri (fun i _ -> i < n_del) (Mv_util.Prng.shuffle prng rows)
    in
    [ (tn, { Ivm.ins; del }) ]
  end

(* A random UPDATE batch: distinct existing row instances as the
   before-images, each after-image a mutation of its before-image (or
   sometimes the identity, exercising the kept no-op pairs). *)
let random_update_batch prng db (view : Mv_core.View.t) : Ivm.batch =
  let tn = Mv_util.Prng.pick prng (Mv_util.Sset.elements view.Mv_core.View.source_tables) in
  let tbl = DB.table_exn db tn in
  let rows = tbl.Table.rows in
  let n = List.length rows in
  if n = 0 then []
  else begin
    let k = 1 + Mv_util.Prng.int prng (min 4 n) in
    let befores =
      List.filteri (fun i _ -> i < k) (Mv_util.Prng.shuffle prng rows)
    in
    let pairs =
      List.map
        (fun r ->
          if Mv_util.Prng.chance prng 0.2 then (r, r)
          else (r, mutate_row prng tbl r))
        befores
    in
    [ (tn, Ivm.updates pairs) ]
  end

let count = Helpers.qcheck_count (if quick then 10 else 40)

(* The indexes the exec-mixed benchmark workload declares
   (perfbench/bench.ml): they narrow scans of live tables, and a delta
   term's slices must never be served them. *)
let tpch_indexes =
  [
    ("lineitem", [ "l_orderkey" ]); ("orders", [ "o_orderkey" ]);
    ("part", [ "p_partkey" ]); ("nation", [ "n_nationkey" ]);
    ("region", [ "r_regionkey" ]);
  ]

(* Whether the cost model has read column [c] of [name]'s entry. *)
let was_read stats name c =
  match Mv_catalog.Stats.table stats name with
  | Some ts -> (
      match List.assoc_opt c ts.Mv_catalog.Stats.columns with
      | Some cell -> Mv_catalog.Stats.was_read cell
      | None -> false)
  | None -> false

(* Three batches from [gen] through both arms. After each, the view must
   match its rematerialization, every due view's refreshed statistics
   entry must equal [Database.table_stats] of its contents (histograms,
   MCVs, min, max and ndv; the columns its previous entry had read built,
   still read, the others deferred and forced for the check), and every
   other entry must be the one passed in. Then a random set of the view's
   columns is read through [Stats.col_stats]: a column still deferred
   builds on that read from the contents it has then, which must equal
   [Database.table_stats]' column. *)
let maintained_matches ?(apply = Ivm.apply) gen (pick, db_seed, batch_seed) =
  let views = Lazy.force gen_views in
  let view = List.nth views (pick mod List.length views) in
  let name = view.Mv_core.View.name in
  let db0 = Mv_tpch.Datagen.generate ~seed:db_seed ~scale:1 () in
  List.iter
    (fun (table, cols) -> DB.declare_index db0 ~table ~cols)
    tpch_indexes;
  let dba = DB.copy db0 and dbb = DB.copy db0 in
  ignore (Exec.materialize dba view);
  ignore (Exec.materialize dbb view);
  let ivm = Ivm.create dba in
  Ivm.attach ivm view;
  let prng = Mv_util.Prng.create batch_seed in
  let reads = Mv_util.Prng.create (batch_seed + 1) in
  let stats = ref (DB.stats dba) in
  let ok = ref true in
  for _ = 1 to 3 do
    let batch = gen prng dba view in
    apply ivm batch;
    remat_apply dbb [ view ] batch;
    let dirty = Ivm.dirty_views ivm and before = !stats in
    stats := Ivm.refresh_stats ivm !stats;
    let on_demand v =
      List.for_all
        (fun (c, cell) ->
          Mv_catalog.Stats.is_built cell = was_read before v c
          && Mv_catalog.Stats.was_read cell = was_read before v c)
        (Option.get (Mv_catalog.Stats.table !stats v)).Mv_catalog.Stats.columns
    in
    if
      not
        (bag_close (view_rows dba name) (view_rows dbb name)
        && List.for_all
             (fun v -> entry_rebuilt !stats dba v && on_demand v)
             dirty
        && List.for_all
             (fun (v, ts) ->
               List.mem v dirty
               ||
               match Mv_catalog.Stats.table before v with
               | Some ts0 -> ts0 == ts
               | None -> false)
             (Mv_catalog.Stats.bindings !stats))
    then ok := false;
    let now = DB.table_stats dba name in
    List.iter
      (fun (c, cell) ->
        if Mv_util.Prng.chance reads 0.3 then begin
          let deferred = not (Mv_catalog.Stats.is_built cell) in
          match Mv_catalog.Stats.col_stats !stats (col name c) with
          | Some cs ->
              if
                deferred
                && cs
                   <> Mv_catalog.Stats.force
                        (List.assoc c now.Mv_catalog.Stats.columns)
              then ok := false
          | None -> ok := false
        end)
      (Option.get (Mv_catalog.Stats.table !stats name)).Mv_catalog.Stats.columns
  done;
  !ok

let arb =
  QCheck.(triple (int_bound 1_000_000) (int_range 1 3) (int_bound 1_000_000))

let differential_prop =
  QCheck.Test.make ~name:"random views: maintained = rematerialized" ~count arb
    (maintained_matches random_batch)

let updates_prop =
  QCheck.Test.make ~name:"random updates: maintained = rematerialized" ~count
    arb
    (maintained_matches random_update_batch)

(* ---- an invalid batch changes nothing ---- *)

(* [rows] with each of [extra] placed at a random position. *)
let scatter prng extra rows =
  List.fold_left
    (fun acc r ->
      let i = Mv_util.Prng.int prng (List.length acc + 1) in
      List.filteri (fun j _ -> j < i) acc
      @ (r :: List.filteri (fun j _ -> j >= i) acc))
    rows extra

(* The batch [tn, d] made invalid in one of five ways, by [kind]: 0 adds
   one delete of a row the table does not hold; 1 adds deletes of one of
   the table's rows until they exceed its multiplicity (the batch's own
   inserts of it included); 2 inserts a copy of a row with one value of
   another type than its column's; 3 inserts a copy with a NULL in a NOT
   NULL column; 4 splits [d] into its inserts and its deletes, each
   naming [tn]. The bad row lands at a random place among the others. *)
let invalidate prng db tn (d : Ivm.delta) ~kind : Ivm.batch =
  let tbl = DB.table_exn db tn in
  let rows = tbl.Table.rows in
  let held r = List.length (List.filter (( = ) r) (rows @ d.Ivm.ins)) in
  let any_row () = List.nth rows (Mv_util.Prng.int prng (List.length rows)) in
  match kind with
  | 0 | 1 ->
      let bad =
        if kind = 1 then begin
          let r = any_row () in
          List.init (held r + 1) (fun _ -> r)
        end
        else begin
          let r = Array.copy (List.hd rows) in
          r.(0) <- V.Int (-1 - Mv_util.Prng.int prng 1000);
          assert (held r = 0);
          [ r ]
        end
      in
      let others = List.filter (fun r -> not (List.mem r bad)) d.Ivm.del in
      [ (tn, { d with Ivm.del = scatter prng bad others }) ]
  | 2 | 3 ->
      let cols =
        List.mapi
          (fun i (c : Mv_catalog.Column.t) -> (i, c))
          tbl.Table.def.Mv_catalog.Table_def.columns
        |> List.filter (fun (_, (c : Mv_catalog.Column.t)) ->
               kind = 2 || not c.Mv_catalog.Column.nullable)
      in
      let i, c = Mv_util.Prng.pick prng cols in
      let r = Array.copy (any_row ()) in
      r.(i) <-
        (if kind = 3 then V.Null
         else if c.Mv_catalog.Column.dtype = Mv_base.Dtype.Str then V.Int 1
         else V.Str "x");
      [ (tn, { d with Ivm.ins = scatter prng [ r ] d.Ivm.ins }) ]
  | _ -> [ (tn, { d with Ivm.del = [] }); (tn, { d with Ivm.ins = [] }) ]

(* The rows a table holds after [Database.write] applies [d] to [rows],
   by a model that shares no code with it: the inserts consed on in
   order, then each delete removing the first structurally equal row. *)
let model_rows rows (d : Ivm.delta) =
  let rec remove_first r = function
    | [] -> failwith "model: a delete names an absent row"
    | x :: rest -> if x = r then rest else x :: remove_first r rest
  in
  List.fold_left
    (fun rows r -> remove_first r rows)
    (List.fold_left (fun rows r -> r :: rows) rows d.Ivm.ins)
    d.Ivm.del

let table_rows db =
  Hashtbl.fold (fun name (tbl : Table.t) acc -> (name, tbl.Table.rows) :: acc)
    db.DB.tables []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* [Database.write] on a database with no IVM attached: a valid batch
   leaves every table the list {!model_rows} gives (an unwritten one
   physically the same), an invalid one raises and leaves every table's
   list physically the same. *)
let write_matches_model db batch ~valid =
  let before = table_rows db in
  match DB.write db batch with
  | () ->
      valid
      && List.for_all2
           (fun (name, rows) (_, rows') ->
             match List.assoc_opt name batch with
             | Some d -> rows' = model_rows rows d
             | None -> rows' == rows)
           before (table_rows db)
  | exception DB.Invalid_batch _ ->
      (not valid) && List.for_all2 (fun (_, r) (_, r') -> r == r') before (table_rows db)

(* Twin databases take the same valid batch; one then takes an invalid
   batch, which must raise [Invalid_batch] and leave it equal to its twin:
   base and view rows, the statistics [refresh_stats] derives, the dirty
   set, and each view's row count. A third copy with no IVM
   attached takes both batches through [Database.write] alone
   ({!write_matches_model}). *)
let invalid_batch_unchanged (pick, db_seed, batch_seed, kind) =
  let views = Lazy.force gen_views in
  let v0 = List.nth views (pick mod List.length views) in
  let db0 = Mv_tpch.Datagen.generate ~seed:db_seed ~scale:1 () in
  List.iter (fun (table, cols) -> DB.declare_index db0 ~table ~cols) tpch_indexes;
  let arm () =
    let db = DB.copy db0 in
    let v =
      Mv_core.View.create tpch_schema ~name:v0.Mv_core.View.name
        (Mv_core.View.spjg v0)
    in
    ignore (Exec.materialize db v);
    let ivm = Ivm.create db in
    Ivm.attach ivm v;
    (db, v, ivm)
  in
  let dba, va, ia = arm () and dbb, vb, ib = arm () in
  let dbc = DB.copy db0 in
  let stats = DB.stats dba in
  let prng = Mv_util.Prng.create batch_seed in
  let valid = random_batch prng dba va in
  let plain_valid = write_matches_model dbc valid ~valid:true in
  Ivm.apply ia valid;
  Ivm.apply ib valid;
  let tn, d =
    match random_batch prng dba va with
    | [ (tn, d) ] -> (tn, d)
    | _ ->
        let tn = Mv_util.Sset.min_elt va.Mv_core.View.source_tables in
        (tn, { Ivm.ins = []; del = [] })
  in
  let bad = invalidate prng dba tn d ~kind in
  let plain_invalid = write_matches_model dbc bad ~valid:false in
  match Ivm.apply ia bad with
  | () -> false
  | exception DB.Invalid_batch _ ->
      plain_valid && plain_invalid
      && table_rows dba = table_rows dbb
      && Ivm.dirty_views ia = Ivm.dirty_views ib
      && va.Mv_core.View.row_count = vb.Mv_core.View.row_count
      && List.equal
           (fun (n, a) (m, b) ->
             n = m && Mv_catalog.Stats.equal_table a b)
           (Mv_catalog.Stats.bindings (Ivm.refresh_stats ia stats))
           (Mv_catalog.Stats.bindings (Ivm.refresh_stats ib stats))

let invalid_batch_prop =
  QCheck.Test.make ~name:"an invalid batch changes nothing"
    ~count:(Helpers.qcheck_count (if quick then 10 else 30))
    QCheck.(
      quad (int_bound 1_000_000) (int_range 1 3) (int_bound 1_000_000)
        (int_range 0 4))
    invalid_batch_unchanged

(* The property as an Alcotest case, preceded by one fixed case whose
   delta terms must reuse a live build table: a generator view joining
   lineitem to orders and batches inserting two lineitem rows, whose
   insert terms reach the unwritten orders (90 rows at scale 1) through
   the hash table kept over its row list. *)
let probing_qtest prop =
  let name, speed, run = Helpers.qtest prop in
  ( name,
    speed,
    fun () ->
      let views = Lazy.force gen_views in
      let joins (v : Mv_core.View.t) =
        Mv_util.Sset.mem "lineitem" v.Mv_core.View.source_tables
        && Mv_util.Sset.mem "orders" v.Mv_core.View.source_tables
      in
      let pick =
        match List.find_index joins views with
        | Some i -> i
        | None -> Alcotest.fail "no generator view joins lineitem and orders"
      in
      let two_lineitems _ db _ =
        match (DB.table_exn db "lineitem").Table.rows with
        | a :: b :: _ -> [ ("lineitem", ins [ a; b ]) ]
        | _ -> Alcotest.fail "lineitem needs two rows"
      in
      let delta_reuses = ref 0 in
      let apply ivm batch =
        let before = reused () in
        Ivm.apply ivm batch;
        delta_reuses := !delta_reuses + reused () - before
      in
      Alcotest.(check bool) "fixed lineitem-orders case" true
        (maintained_matches ~apply two_lineitems (pick, 1, 0));
      Alcotest.(check bool) "a delta term reused a live build table" true
        (!delta_reuses > 0);
      run () )

let suite =
  [
    ( "ivm_units",
      [
        Alcotest.test_case "SPJ projection duplicates" `Quick
          test_spj_duplicates;
        Alcotest.test_case "join deltas, both sides in one batch" `Quick
          test_join_delta;
        Alcotest.test_case "indexed join, both sides in one batch" `Quick
          test_indexed_join_both_sides;
        Alcotest.test_case "aggregate groups: NULL sums, birth, death" `Quick
          test_agg_groups;
        Alcotest.test_case "UPDATE as delete+insert sugar" `Quick
          test_updates;
        Alcotest.test_case "scalar aggregate keeps its single row" `Quick
          test_scalar_agg;
        Alcotest.test_case "statistics refresh" `Quick test_stats_refresh;
        Alcotest.test_case "error paths" `Quick test_errors;
        Alcotest.test_case "attach refuses rows not one per group" `Quick
          test_attach_mismatch;
        Alcotest.test_case "build tables follow every write path" `Quick
          test_build_cache_writes;
        Alcotest.test_case "build tables: both join sides in one batch"
          `Quick test_build_cache_two_tables;
        Alcotest.test_case "build tables: delta terms reuse a dimension"
          `Quick test_build_cache_reuse;
        Alcotest.test_case "maintenance records no estimation error" `Quick
          test_qerror_samples;
        Alcotest.test_case "rebuilt statistics: Ints beside equal Floats"
          `Quick test_mixed_rebuilds;
        Alcotest.test_case "statistics rebuilt as the base table doubles"
          `Quick test_growth_rebuilds;
        Alcotest.test_case "statistics rebuilt on read demand" `Quick
          test_read_demand;
        Alcotest.test_case "a deferred column read by two domains" `Quick
          test_deferred_race;
      ] );
    ( "ivm_diff",
      [
        probing_qtest differential_prop;
        probing_qtest updates_prop;
        Helpers.qtest invalid_batch_prop;
      ] );
  ]
