(** Histogram statistics: the equi-depth invariants of
    [Stats.build_column], selectivity-vs-brute-force bounds for the
    histogram and MCV estimation paths, edge cases (empty / all-null /
    constant columns), and the observable missing-statistics fallback of
    [Stats.row_count]. *)

open Mv_base
module Stats = Mv_catalog.Stats

let nonnull values = List.filter (fun v -> not (Value.is_null v)) values

(* Integer columns with occasional NULLs, heavy duplication (domain
   0..100) so runs, MCVs and boundary alignment are all exercised. *)
let gen_col =
  QCheck.make
    ~print:(fun vs -> String.concat ";" (List.map Value.to_string vs))
    QCheck.Gen.(
      list_size (0 -- 400)
        (frequency
           [
             (9, map (fun n -> Value.Int n) (0 -- 100));
             (1, return Value.Null);
           ]))

let buckets = 8

let invariants_prop =
  QCheck.Test.make ~name:"stats: equi-depth histogram invariants"
    ~count:(Helpers.qcheck_count 300) gen_col (fun values ->
      let cs = Stats.build_column ~buckets ~mcv_limit:16 values in
      let nn = nonnull values in
      let n = List.length nn in
      (match cs.Stats.hist with
      | None ->
          (* only empty or (near-)constant columns may omit the histogram *)
          if cs.Stats.ndv > 1 then
            QCheck.Test.fail_reportf "no histogram despite ndv=%d"
              cs.Stats.ndv
      | Some h ->
          let nb = Array.length h.Stats.h_bounds in
          if nb = 0 || nb <> Array.length h.Stats.h_counts then
            QCheck.Test.fail_reportf "bad shape: %d bounds / %d counts" nb
              (Array.length h.Stats.h_counts);
          if nb > buckets + 1 then
            QCheck.Test.fail_reportf "%d buckets exceeds the budget" nb;
          if Stats.hist_total h <> n then
            QCheck.Test.fail_reportf "counts sum to %d, expected %d"
              (Stats.hist_total h) n;
          Array.iter
            (fun c ->
              if c <= 0 then QCheck.Test.fail_reportf "empty bucket")
            h.Stats.h_counts;
          for i = 1 to nb - 1 do
            if Value.order h.Stats.h_bounds.(i - 1) h.Stats.h_bounds.(i) >= 0
            then QCheck.Test.fail_reportf "bounds not strictly increasing"
          done;
          if Value.order h.Stats.h_lo cs.Stats.min_v <> 0 then
            QCheck.Test.fail_reportf "h_lo is not the column minimum";
          if Value.order h.Stats.h_bounds.(nb - 1) cs.Stats.max_v <> 0 then
            QCheck.Test.fail_reportf "last bound is not the column maximum");
      (* exhaustive MCVs for low-NDV columns: every distinct value, exact
         multiplicities, heaviest first *)
      (if cs.Stats.ndv <= 16 && n > 0 then
         match cs.Stats.mcvs with
         | [] -> QCheck.Test.fail_reportf "no MCVs despite ndv <= limit"
         | mcvs ->
             if List.length mcvs <> cs.Stats.ndv then
               QCheck.Test.fail_reportf "MCV list is not exhaustive";
             if List.fold_left (fun a (_, c) -> a + c) 0 mcvs <> n then
               QCheck.Test.fail_reportf "MCV counts do not sum to rows";
             let rec desc = function
               | (_, a) :: ((_, b) :: _ as tl) -> a >= b && desc tl
               | _ -> true
             in
             if not (desc mcvs) then
               QCheck.Test.fail_reportf "MCVs not sorted by count");
      true)

(* Wrap one column as a full statistics table for the selectivity API. *)
let stats_of values =
  let cs = Stats.build_column ~buckets ~mcv_limit:128 values in
  let n = List.length (nonnull values) in
  ([ ("t", { Stats.row_count = n; columns = [ ("c", cs) ] }) ], n)

let the_col = Col.make "t" "c"

let brute values op c =
  let sat v =
    match Value.cmp3 v (Value.Int c) with
    | None -> false
    | Some d -> (
        match (op : Pred.cmp) with
        | Pred.Eq -> d = 0
        | Pred.Ne -> d <> 0
        | Pred.Lt -> d < 0
        | Pred.Le -> d <= 0
        | Pred.Gt -> d > 0
        | Pred.Ge -> d >= 0)
  in
  let nn = nonnull values in
  match nn with
  | [] -> None
  | _ ->
      Some
        (float_of_int (List.length (List.filter sat nn))
        /. float_of_int (List.length nn))

let gen_range =
  QCheck.pair gen_col
    (QCheck.pair
       (QCheck.oneofl [ Pred.Lt; Pred.Le; Pred.Gt; Pred.Ge ])
       QCheck.(int_range (-10) 110))

(* The share of the rows in the histogram bucket containing [v]: bucket 0
   covers [h_lo, b0], bucket i covers (b(i-1), b(i)]. Outside the
   histogram's range the cumulative fraction is exact (share 0); a column
   without a histogram (ndv <= 1) counts as one bucket holding every
   row. *)
let containing_share (cs : Stats.col_stats) n v =
  match cs.Stats.hist with
  | None -> 1.0
  | Some h ->
      let nb = Array.length h.Stats.h_bounds in
      let rec go i =
        if i = nb then 0.0
        else if Value.order v h.Stats.h_bounds.(i) <= 0 then
          float_of_int h.Stats.h_counts.(i) /. float_of_int n
        else go (i + 1)
      in
      if Value.order v h.Stats.h_lo < 0 then 0.0 else go 0

let op_name = function
  | Pred.Lt -> "<"
  | Pred.Le -> "<="
  | Pred.Gt -> ">"
  | Pred.Ge -> ">="
  | _ -> "?"

(* A range estimate from an equi-depth histogram is off by at most the
   share of the bucket containing the probe value, plus the clamp floor
   (DESIGN.md §11): the cumulative fraction counts every bucket below the
   probe exactly and interpolates only inside its bucket, and Eq is exact
   on the exhaustive MCV list. The bucket is read from the built
   histogram, since a heavy run or the [ndv < buckets] recut makes it
   deeper than [ceil(n / buckets)]. *)
let range_prop =
  QCheck.Test.make ~name:"stats: range selectivity within the containing bucket"
    ~count:(Helpers.qcheck_count 300) gen_range
    (fun (values, (op, c)) ->
      let stats, n = stats_of values in
      match brute values op c with
      | None -> true
      | Some frac ->
          let est = Stats.range_selectivity stats the_col op (Value.Int c) in
          let cs = Option.get (Stats.col_stats stats the_col) in
          let tol = containing_share cs n (Value.Int c) +. 0.0001 in
          if Float.abs (est -. frac) > tol then
            QCheck.Test.fail_reportf
              "op=%s c=%d: estimated %.4f, actual %.4f, tolerance %.4f"
              (op_name op) c est frac tol
          else true)

(* The column behind the former one-bucket-depth tolerance's failures:
   five runs under eight buckets are recut at depth 2, so the 89s close a
   3-row bucket and [>= 88] interpolates across it. *)
let test_containing_bucket_case () =
  let values = List.map (fun n -> Value.Int n) [ 11; 20; 23; 58; 89; 89; 89 ] in
  let stats, n = stats_of values in
  let cs = Option.get (Stats.col_stats stats the_col) in
  (match cs.Stats.hist with
  | Some h ->
      Alcotest.(check (list int)) "bucket counts" [ 2; 2; 3 ]
        (Array.to_list h.Stats.h_counts);
      Alcotest.(check (list string)) "bucket bounds" [ "20"; "58"; "89" ]
        (List.map Value.to_string (Array.to_list h.Stats.h_bounds))
  | None -> Alcotest.fail "no histogram");
  let est = Stats.range_selectivity stats the_col Pred.Ge (Value.Int 88) in
  let frac = Option.get (brute values Pred.Ge 88) in
  let share = containing_share cs n (Value.Int 88) in
  Alcotest.(check (float 1e-9)) "containing bucket share" (3.0 /. 7.0) share;
  Alcotest.(check bool)
    (Printf.sprintf "|%.4f - %.4f| within %.4f" est frac share)
    true
    (Float.abs (est -. frac) <= share +. 0.0001)

(* Equality and inequality against an exhaustive MCV list are exact (up
   to the 0.0001 clamp floor). *)
let eq_prop =
  QCheck.Test.make ~name:"stats: Eq/Ne selectivity exact on exhaustive MCVs"
    ~count:(Helpers.qcheck_count 300)
    (QCheck.pair gen_col QCheck.(int_range (-10) 110))
    (fun (values, c) ->
      let stats, _ = stats_of values in
      match brute values Pred.Eq c with
      | None -> true
      | Some frac ->
          let est = Stats.range_selectivity stats the_col Pred.Eq (Value.Int c) in
          let est_ne =
            Stats.range_selectivity stats the_col Pred.Ne (Value.Int c)
          in
          Float.abs (est -. Float.max frac 0.0001) <= 0.0005
          && Float.abs (est_ne -. Float.max (1.0 -. frac) 0.0001) <= 0.0005)

(* ---- edge cases ---- *)

let test_empty_column () =
  let cs = Stats.build_column [] in
  Alcotest.(check int) "ndv" 0 cs.Stats.ndv;
  Alcotest.(check bool) "no hist" true (cs.Stats.hist = None);
  Alcotest.(check bool) "no mcvs" true (cs.Stats.mcvs = []);
  Alcotest.(check bool) "null min" true (Value.is_null cs.Stats.min_v)

let test_all_null_column () =
  let cs = Stats.build_column [ Value.Null; Value.Null ] in
  Alcotest.(check int) "ndv" 0 cs.Stats.ndv;
  Alcotest.(check bool) "no hist" true (cs.Stats.hist = None)

let test_constant_column () =
  let cs = Stats.build_column (List.init 10 (fun _ -> Value.Int 7)) in
  Alcotest.(check int) "ndv" 1 cs.Stats.ndv;
  Alcotest.(check bool) "no hist" true (cs.Stats.hist = None);
  Alcotest.(check bool) "exhaustive mcv" true
    (cs.Stats.mcvs = [ (Value.Int 7, 10) ]);
  (* equality on the single value is certain; on any other value ~zero *)
  let stats = [ ("t", { Stats.row_count = 10; columns = [ ("c", cs) ] }) ] in
  Alcotest.(check (float 0.0001))
    "hit" 1.0
    (Stats.range_selectivity stats the_col Pred.Eq (Value.Int 7));
  Alcotest.(check (float 0.0002))
    "miss" 0.0001
    (Stats.range_selectivity stats the_col Pred.Eq (Value.Int 8))

(* Runs never straddle bucket boundaries, even under heavy skew. *)
let test_no_straddle () =
  let values =
    List.init 90 (fun _ -> Value.Int 1) @ List.init 10 (fun i -> Value.Int (2 + i))
  in
  let cs = Stats.build_column ~buckets:4 values in
  match cs.Stats.hist with
  | None -> Alcotest.fail "expected a histogram"
  | Some h ->
      (* the run of 90 ones must land in exactly one bucket *)
      Alcotest.(check int) "first bucket holds the run" 90 h.Stats.h_counts.(0);
      Alcotest.(check bool) "first bound is 1" true
        (Value.order h.Stats.h_bounds.(0) (Value.Int 1) = 0)

let test_missing_table_observable () =
  let gval = Mv_obs.Registry.counter_value Mv_obs.Registry.global in
  let before = gval "cost.stats.missing" in
  Alcotest.(check int)
    "default row count" Stats.default_row_count
    (Stats.row_count [] "no_such_table");
  Alcotest.(check int)
    "missing counter bumped" (before + 1)
    (gval "cost.stats.missing");
  (* a known table does not touch the counter *)
  let stats = [ ("t", { Stats.row_count = 5; columns = [] }) ] in
  Alcotest.(check int) "known row count" 5 (Stats.row_count stats "t");
  Alcotest.(check int)
    "counter unchanged" (before + 1)
    (gval "cost.stats.missing")

(* Regression for the bench --exec q_bigcust q-error: a view over
   correlated predicates whose analytic estimate (independence
   assumption) is badly off. Materializing through
   [Exec.materialize_stats] must record view-level statistics that
   [Cost.estimate_view_rows ~name] then prefers over the analytic
   model. *)
let test_view_level_stats () =
  let schema =
    let open Mv_catalog in
    Schema.make
      ~tables:
        [
          Table_def.make ~name:"t"
            ~columns:
              [ Column.make "a" Dtype.Int; Column.make "b" Dtype.Int ]
            ~primary_key:[ "a" ] ();
        ]
      ~foreign_keys:[]
  in
  let db = Mv_engine.Database.create schema in
  for i = 0 to 199 do
    (* a and b perfectly correlated: both predicates below select the
       same 100 rows, but independence multiplies the selectivities *)
    Mv_engine.Database.insert db "t" [| Value.Int i; Value.Int i |]
  done;
  let stats = [ ("t", Mv_engine.Database.table_stats db "t") ] in
  let ca = Expr.Col (Col.make "t" "a") in
  let cb = Expr.Col (Col.make "t" "b") in
  let spjg =
    Mv_relalg.Spjg.make ~tables:[ "t" ]
      ~where:
        [
          Pred.Cmp (Pred.Ge, ca, Expr.Const (Value.Int 100));
          Pred.Cmp (Pred.Ge, cb, Expr.Const (Value.Int 100));
        ]
      ~group_by:None
      ~out:[ Mv_relalg.Spjg.scalar "a" ca ]
  in
  let view = Mv_core.View.create schema ~name:"corr_v" spjg in
  let analytic = Mv_opt.Cost.estimate_view_rows ~name:"corr_v" stats spjg in
  let tbl, stats' = Mv_engine.Exec.materialize_stats db view stats in
  let actual = List.length tbl.Mv_engine.Table.rows in
  Alcotest.(check int) "the correlated slice holds 100 rows" 100 actual;
  Alcotest.(check bool)
    (Printf.sprintf "analytic estimate is off (%d vs %d)" analytic actual)
    true
    (abs (analytic - actual) > actual / 4);
  Alcotest.(check int) "measured stats win after materialization" actual
    (Mv_opt.Cost.estimate_view_rows ~name:"corr_v" stats' spjg);
  (* without the view name, the analytic path must still answer *)
  Alcotest.(check int) "analytic path untouched" analytic
    (Mv_opt.Cost.estimate_view_rows stats' spjg)

let suite =
  [
    ( "prop_stats",
      [
        Helpers.qtest invariants_prop;
        Helpers.qtest range_prop;
        Helpers.qtest eq_prop;
        Alcotest.test_case "range error within a recut 3-row bucket" `Quick
          test_containing_bucket_case;
        Alcotest.test_case "empty column" `Quick test_empty_column;
        Alcotest.test_case "all-null column" `Quick test_all_null_column;
        Alcotest.test_case "constant column" `Quick test_constant_column;
        Alcotest.test_case "runs never straddle buckets" `Quick
          test_no_straddle;
        Alcotest.test_case "missing table is observable" `Quick
          test_missing_table_observable;
        Alcotest.test_case "view-level stats beat the analytic estimate"
          `Quick test_view_level_stats;
      ] );
  ]
