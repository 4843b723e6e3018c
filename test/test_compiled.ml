(** The executor's compiled form against the interpreter and the naive
    oracle.

    - A property: expressions and predicates compiled against a random
      slot layout ([Eval.compile_expr]/[compile_pred]/[compile_holds])
      return what [Eval.expr]/[Eval.pred]/[Eval.pred_holds] return over
      the environment reading the same slots, or both raise the same
      error. The generators cover NULLs, mixed Int/Float arithmetic,
      dates, LIKE, three-valued NOT/AND/OR, division by zero, unknown
      functions and columns the layout does not place.
    - Engine cases for mistakes a slot layout can make, each checked
      against [test/naive.ml] through [Exec] and, where a plan fits,
      [Plan_exec]. *)

open Mv_base
module Spjg = Mv_relalg.Spjg

(* ---- compiled = interpreted ---- *)

(* Six columns over two tables; a layout places some of them. *)
let pool =
  List.concat_map
    (fun t -> List.map (Col.make t) [ "x"; "y"; "z" ])
    [ "a"; "b" ]

let gen_value =
  QCheck.Gen.(
    frequency
      [
        (3, return Value.Null);
        (4, map (fun i -> Value.Int i) (int_range (-3) 3));
        ( 3,
          map
            (fun f -> Value.Float f)
            (oneofl [ 0.0; -0.0; 0.5; 1.0; -2.5; 3.0 ]) );
        (2, map (fun d -> Value.Date d) (int_range 9000 9010));
        (2, map (fun s -> Value.Str s) (oneofl [ ""; "ab"; "abc"; "ba"; "A" ]));
        (1, map (fun b -> Value.Bool b) bool);
      ])

let gen_expr =
  QCheck.Gen.(
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 (3, map (fun c -> Expr.Col c) (oneofl pool));
                 (2, map (fun v -> Expr.Const v) gen_value);
               ]
           in
           if n = 0 then leaf
           else
             frequency
               [
                 (3, leaf);
                 ( 3,
                   map3
                     (fun op l r -> Expr.Binop (op, l, r))
                     (oneofl Expr.[ Add; Sub; Mul; Div ])
                     (self (n - 1)) (self (n - 1)) );
                 (1, map (fun e -> Expr.Neg e) (self (n - 1)));
                 ( 2,
                   map2
                     (fun f args -> Expr.Func (f, args))
                     (oneofl [ "substring"; "upper"; "lower"; "abs"; "nosuch" ])
                     (list_size (int_range 1 3) (self (n - 1))) );
               ]))

let gen_pred =
  QCheck.Gen.(
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 ( 4,
                   map3
                     (fun op l r -> Pred.Cmp (op, l, r))
                     (oneofl Pred.[ Eq; Ne; Lt; Le; Gt; Ge ])
                     gen_expr gen_expr );
                 ( 2,
                   map2
                     (fun e p -> Pred.Like (e, p))
                     gen_expr
                     (oneofl [ "a%"; "%b%"; "_b"; "abc"; "%" ]) );
                 (1, map (fun e -> Pred.Is_null e) gen_expr);
                 (1, map (fun b -> Pred.Bool b) bool);
               ]
           in
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun p -> Pred.Not p) (self (n - 1)));
                 ( 2,
                   map2 (fun l r -> Pred.And (l, r)) (self (n - 1)) (self (n - 1))
                 );
                 ( 2,
                   map2 (fun l r -> Pred.Or (l, r)) (self (n - 1)) (self (n - 1))
                 );
               ]))

(* A layout: each pool column placed at a distinct slot of a tuple of
   [width] values, or (one time in four) not placed at all. *)
let gen_layout =
  QCheck.Gen.(
    let n = List.length pool in
    int_range n (n + 3) >>= fun width ->
    shuffle_l (List.init width Fun.id) >>= fun slots ->
    list_repeat n (int_bound 3) >>= fun drop ->
    array_repeat width gen_value >|= fun tuple ->
    let placed =
      List.filteri
        (fun i _ -> List.nth drop i > 0)
        (List.combine pool (List.filteri (fun i _ -> i < n) slots))
    in
    (placed, tuple))

let show_layout (placed, tuple) =
  String.concat ", "
    (List.map
       (fun (c, i) -> Printf.sprintf "%s@%d" (Col.to_string c) i)
       placed)
  ^ " | "
  ^ String.concat ", " (Array.to_list (Array.map Value.to_string tuple))

let outcome f =
  match f () with
  | v -> Ok v
  | exception Eval.Eval_error m -> Error ("Eval_error: " ^ m)
  | exception Value.Type_error m -> Error ("Type_error: " ^ m)

let env (placed, tuple) c =
  match List.assoc_opt c placed with
  | Some i -> tuple.(i)
  | None -> raise (Eval.Eval_error ("unbound column " ^ Col.to_string c))

let slot (placed, _) c = List.assoc_opt c placed

let same a b =
  match (a, b) with
  | Ok x, Ok y -> compare x y = 0
  | Error x, Error y -> x = y
  | _ -> false

let expr_prop =
  QCheck.Test.make ~name:"compiled expressions equal Eval.expr"
    ~count:(Helpers.qcheck_count 2000)
    (QCheck.make
       ~print:(fun (l, e) -> show_layout l ^ " ; " ^ Expr.to_string e)
       QCheck.Gen.(pair gen_layout gen_expr))
    (fun (l, e) ->
      let compiled = Eval.compile_expr (slot l) e in
      same
        (outcome (fun () -> Eval.expr (env l) e))
        (outcome (fun () -> compiled (snd l))))

let pred_prop =
  QCheck.Test.make ~name:"compiled predicates equal Eval.pred"
    ~count:(Helpers.qcheck_count 2000)
    (QCheck.make
       ~print:(fun (l, p) -> show_layout l ^ " ; " ^ Pred.to_string p)
       QCheck.Gen.(pair gen_layout gen_pred))
    (fun (l, p) ->
      let compiled = Eval.compile_pred (slot l) p in
      let holds = Eval.compile_holds (slot l) p in
      same
        (outcome (fun () -> Eval.pred (env l) p))
        (outcome (fun () -> compiled (snd l)))
      && same
           (outcome (fun () -> Eval.pred_holds (env l) p))
           (outcome (fun () -> holds (snd l))))

(* ---- layout mistakes, against the naive oracle ---- *)

let priced = Test_engine.priced
let c_t = Test_engine.c_t
let c_u = Test_engine.c_u

let rows =
  [
    priced 1 (Value.Int 5); priced 2 (Value.Float 5.0); priced 3 Value.Null;
    priced 4 (Value.Int 7);
  ]

(* u's ids and prices differ from t's, so a tuple that reads the wrong
   table's slot shows. *)
let u_rows =
  [
    [| Value.Int 10; Value.Int 1; Value.Int 7 |];
    [| Value.Int 11; Value.Int 2; Value.Float 5.0 |];
    [| Value.Int 12; Value.Int 1; Value.Null |];
  ]

let ids out = List.map (fun (n, e) -> Spjg.scalar n e) out

let check = Test_naive.check_both

(* A hand-built plan joining scans of t and u on [keys], filtered by
   [post]: the plan executor's join over bags of the same rows. *)
let join_plan keys post =
  match Test_engine.priced_join_plan with
  | Mv_opt.Plan.Join j -> Mv_opt.Plan.Join { j with keys; post }
  | _ -> assert false

let test_same_position_keys () =
  (* t.price and u.price sit at stored position 2 in both tables, t.k and
     u.k at 1; the layout gives them four different slots *)
  let db = Test_engine.priced_db ~t_rows:rows ~u_rows in
  let q =
    Spjg.make ~tables:[ "t"; "u" ]
      ~where:[ Pred.Cmp (Pred.Eq, c_t "price", c_u "price") ]
      ~group_by:None
      ~out:(ids [ ("tid", c_t "id"); ("uk", c_u "k"); ("tk", c_t "k") ])
  in
  check "same-position keys" db q
    ~plan:(join_plan [ (Helpers.col "t" "price", Helpers.col "u" "price") ] [])
    [
      [ Value.Int 1; Value.Int 2; Value.Int 1 ];
      [ Value.Int 2; Value.Int 2; Value.Int 1 ];
      [ Value.Int 4; Value.Int 1; Value.Int 1 ];
    ]

let test_cross_product () =
  let db =
    Test_engine.priced_db
      ~t_rows:[ priced 1 (Value.Int 5); priced 2 Value.Null ]
      ~u_rows:
        [
          [| Value.Int 10; Value.Int 3; Value.Int 9 |];
          [| Value.Int 11; Value.Int 4; Value.Int 8 |];
        ]
  in
  let q =
    Spjg.make ~tables:[ "t"; "u" ]
      ~where:[ Pred.Cmp (Pred.Lt, c_t "id", c_u "k") ]
      ~group_by:None
      ~out:(ids [ ("tid", c_t "id"); ("uid", c_u "id"); ("up", c_u "price") ])
  in
  check "cross product" db q
    ~plan:(join_plan [] [ Pred.Cmp (Pred.Lt, c_t "id", c_u "k") ])
    [
      [ Value.Int 1; Value.Int 10; Value.Int 9 ];
      [ Value.Int 1; Value.Int 11; Value.Int 8 ];
      [ Value.Int 2; Value.Int 10; Value.Int 9 ];
      [ Value.Int 2; Value.Int 11; Value.Int 8 ];
    ]

let test_constant_conjuncts () =
  let db = Test_engine.priced_db ~t_rows:rows ~u_rows in
  let q holds =
    Spjg.make ~tables:[ "t"; "u" ]
      ~where:
        [
          Pred.Cmp (Pred.Eq, c_t "k", c_u "k");
          Pred.Cmp
            ( (if holds then Pred.Le else Pred.Gt),
              Expr.Const (Value.Int 1),
              Expr.Const (Value.Float 1.0) );
        ]
      ~group_by:None
      ~out:(ids [ ("tid", c_t "id"); ("uid", c_u "id") ])
  in
  check "a true constant conjunct" db (q true)
    (List.concat_map
       (fun t -> [ [ Value.Int t; Value.Int 10 ]; [ Value.Int t; Value.Int 12 ] ])
       [ 1; 2; 3; 4 ]);
  check "a false constant conjunct" db (q false) []

let test_cached_table_join () =
  (* 80 u rows indexed on k, two t rows probing: the join probes the hash
     table kept over u's whole row list, and the u columns it copies must
     land in u's slots, on the run that builds the table and on the run
     that reuses it *)
  let u_rows =
    List.init 80 (fun i ->
        [| Value.Int (100 + i); Value.Int (i mod 40); Value.Int (1000 + i) |])
  in
  let db =
    Test_engine.priced_db
      ~t_rows:
        [
          [| Value.Int 1; Value.Int 3; Value.Int 5 |];
          [| Value.Int 2; Value.Int 41; Value.Null |];
        ]
      ~u_rows
  in
  Mv_engine.Database.declare_index db ~table:"u" ~cols:[ "k" ];
  let q =
    Spjg.make ~tables:[ "t"; "u" ]
      ~where:[ Pred.Cmp (Pred.Eq, c_t "k", c_u "k") ]
      ~group_by:None
      ~out:
        (ids
           [
             ("tid", c_t "id"); ("uid", c_u "id"); ("up", c_u "price");
             ("tp", c_t "price");
           ])
  in
  List.iter
    (fun (what, reuses) ->
      let r0 = Test_engine.build_reuses () in
      check what db q
        [
          [ Value.Int 1; Value.Int 103; Value.Int 1003; Value.Int 5 ];
          [ Value.Int 1; Value.Int 143; Value.Int 1043; Value.Int 5 ];
        ];
      Alcotest.(check int)
        (what ^ ": reuses of the cached table")
        reuses
        (Test_engine.build_reuses () - r0))
    [ ("first run", 0); ("second run", 1) ]

let test_empty_scalar_aggregate_over_join () =
  let db = Test_engine.priced_db ~t_rows:rows ~u_rows in
  let q =
    Spjg.make ~tables:[ "t"; "u" ]
      ~where:
        [
          Pred.Cmp (Pred.Eq, c_t "k", c_u "k");
          Pred.Cmp (Pred.Gt, c_u "price", Expr.Const (Value.Int 100));
        ]
      ~group_by:(Some [])
      ~out:
        [
          Spjg.aggregate "n" Spjg.Count_star;
          Spjg.aggregate "s" (Spjg.Sum (c_t "price"));
          Spjg.aggregate "z" (Spjg.Sum0 (c_u "price"));
          Spjg.aggregate "a" (Spjg.Avg (c_u "id"));
        ]
  in
  check "empty scalar aggregate over a join" db q
    [ [ Value.Int 0; Value.Null; Value.Int 0; Value.Null ] ]

let suite =
  [
    ( "prop_compiled",
      [ Helpers.qtest expr_prop; Helpers.qtest pred_prop ] );
    ( "compiled_layout",
      [
        Alcotest.test_case "join keys at the same stored position" `Quick
          test_same_position_keys;
        Alcotest.test_case "cross product without an equijoin key" `Quick
          test_cross_product;
        Alcotest.test_case "conjuncts over constants only" `Quick
          test_constant_conjuncts;
        Alcotest.test_case "a join through a cached hash table" `Quick
          test_cached_table_join;
        Alcotest.test_case "empty scalar aggregate over a join" `Quick
          test_empty_scalar_aggregate_over_join;
      ] );
  ]
