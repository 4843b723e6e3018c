(** The naive oracle pinned on hand-computed cases: the SQL semantics the
    rewrite suites rely on it for. Each case also runs the executor on the
    same data and requires the oracle's bag, so these double as the
    smallest differential tests of the executor. *)

open Mv_base
module Spjg = Mv_relalg.Spjg

let priced = Test_engine.priced
let c_t = Test_engine.c_t
let c_u = Test_engine.c_u

(* [expected] as sorted rows, and the executor agreeing with the oracle,
   directly and through [plan] when one is given. *)
let check_both ?plan name db q expected =
  let naive = Naive.execute db q in
  let sorted (r : Mv_engine.Relation.t) =
    List.map Array.to_list
      (List.sort Mv_engine.Relation.row_order r.Mv_engine.Relation.rows)
  in
  let value = Alcotest.testable Value.pp Value.equal in
  Alcotest.(check (list (list value)))
    (name ^ ": naive") expected (sorted naive);
  Alcotest.(check bool) (name ^ ": executor agrees") true
    (Mv_engine.Relation.same_bag naive (Mv_engine.Exec.execute db q));
  Option.iter
    (fun plan ->
      Alcotest.(check bool) (name ^ ": plan executor agrees") true
        (Mv_engine.Relation.same_bag naive
           (Mv_opt.Plan_exec.execute db q plan)))
    plan

let test_null_join_keys () =
  (* two NULL prices on each side: NULL = NULL is unknown, so only the
     non-null pair joins *)
  let db =
    Test_engine.priced_db
      ~t_rows:
        [ priced 1 Value.Null; priced 2 (Value.Int 5); priced 3 Value.Null ]
      ~u_rows:
        [
          priced 10 Value.Null;
          priced 11 (Value.Float 5.0);
          priced 12 Value.Null;
        ]
  in
  let q =
    Spjg.make ~tables:[ "t"; "u" ]
      ~where:
        [
          Pred.Cmp (Pred.Eq, c_t "k", c_u "k");
          Pred.Cmp (Pred.Eq, c_t "price", c_u "price");
        ]
      ~group_by:None
      ~out:[ Spjg.scalar "tid" (c_t "id"); Spjg.scalar "uid" (c_u "id") ]
  in
  (* the plan's join node gets the keys with no residual filter after it *)
  check_both ~plan:Test_engine.priced_join_plan "NULL keys" db q
    [ [ Value.Int 2; Value.Int 11 ] ]

let count_by_price db =
  Spjg.make ~tables:[ "t" ] ~where:[]
    ~group_by:(Some [ c_t "price" ])
    ~out:
      [ Spjg.scalar "price" (c_t "price"); Spjg.aggregate "n" Spjg.Count_star ]
  |> check_both "groups" db

let test_nulls_one_group () =
  count_by_price
    (Test_engine.priced_db
       ~t_rows:
         [ priced 1 Value.Null; priced 2 (Value.Int 3); priced 3 Value.Null ]
       ~u_rows:[])
    [ [ Value.Null; Value.Int 2 ]; [ Value.Int 3; Value.Int 1 ] ]

let test_int_float_one_key () =
  count_by_price
    (Test_engine.priced_db
       ~t_rows:
         [
           priced 1 (Value.Int 1);
           priced 2 (Value.Float 1.0);
           priced 3 (Value.Float 1.5);
         ]
       ~u_rows:[])
    [ [ Value.Int 1; Value.Int 2 ]; [ Value.Float 1.5; Value.Int 1 ] ]

let test_empty_aggregates () =
  let db = Test_engine.priced_db ~t_rows:[] ~u_rows:[] in
  let over group_by =
    Spjg.make ~tables:[ "t" ] ~where:[] ~group_by
      ~out:
        ((match group_by with
         | Some [ g ] -> [ Spjg.scalar "k" g ]
         | _ -> [])
        @ [
            Spjg.aggregate "n" Spjg.Count_star;
            Spjg.aggregate "s" (Spjg.Sum (c_t "price"));
          ])
  in
  check_both "empty scalar aggregate" db (over (Some []))
    [ [ Value.Int 0; Value.Null ] ];
  check_both "empty grouped aggregate" db (over (Some [ c_t "k" ])) []

let suite =
  [
    ( "naive",
      [
        Alcotest.test_case "NULL join keys never match" `Quick
          test_null_join_keys;
        Alcotest.test_case "NULLs form one group" `Quick test_nulls_one_group;
        Alcotest.test_case "Int 1 and Float 1.0 are one key" `Quick
          test_int_float_one_key;
        Alcotest.test_case "empty scalar vs grouped aggregate" `Quick
          test_empty_aggregates;
      ] );
  ]
