(** Unit and property tests for the base layer: values, dates, LIKE,
    three-valued logic and expression evaluation. *)

open Mv_base

let v_int i = Value.Int i

let test_value_cmp3 () =
  Alcotest.(check (option int)) "int lt" (Some (-1)) (Value.cmp3 (Value.Int 1) (Value.Int 2));
  Alcotest.(check (option int)) "null lhs" None (Value.cmp3 Value.Null (Value.Int 2));
  Alcotest.(check (option int)) "null rhs" None (Value.cmp3 (Value.Int 2) Value.Null);
  (* mixed numerics compare numerically in both operand orders *)
  List.iter
    (fun (a, b, c) ->
      let show v = Value.to_string v in
      Alcotest.(check (option int))
        (Printf.sprintf "cmp3 %s %s" (show a) (show b))
        (Some c) (Value.cmp3 a b);
      Alcotest.(check (option int))
        (Printf.sprintf "cmp3 %s %s" (show b) (show a))
        (Some (-c)) (Value.cmp3 b a))
    [
      (Value.Int 2, Value.Float 2.0, 0);
      (Value.Int 1, Value.Float 1.5, -1);
      (Value.Int 2, Value.Float 1.5, 1);
    ];
  Alcotest.(check bool)
    "incomparable raises" true
    (try
       ignore (Value.cmp3 (Value.Int 1) (Value.Str "x"));
       false
     with Value.Type_error _ -> true)

let test_value_order_total () =
  (* order must be a total order: null first, then by type tag *)
  let vs =
    [ Value.Null; Value.Bool true; Value.Int 3; Value.Float 2.5;
      Value.Date 100; Value.Str "a" ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let ab = Value.order a b and ba = Value.order b a in
          Alcotest.(check bool) "antisymmetric" true (compare ab (-ba) = 0))
        vs)
    vs

let test_date_roundtrip () =
  List.iter
    (fun s ->
      match Date.of_string s with
      | None -> Alcotest.failf "cannot parse %s" s
      | Some d -> Alcotest.(check string) s s (Date.to_string d))
    [ "1992-01-01"; "1998-12-31"; "1996-02-29"; "2000-02-29"; "1970-01-01" ]

let test_date_arith () =
  let d = Option.get (Date.of_string "1995-12-31") in
  Alcotest.(check string) "+1 day" "1996-01-01" (Date.to_string (d + 1));
  Alcotest.(check (option int)) "bad month" None (Date.of_string "1995-13-01");
  Alcotest.(check (option int)) "junk" None (Date.of_string "hello")

let date_roundtrip_prop =
  QCheck.Test.make ~name:"date: days -> ymd -> days roundtrip" ~count:500
    QCheck.(int_range (-100000) 100000)
    (fun days ->
      let y, m, d = Date.ymd_of_days days in
      Date.days_of_ymd ~year:y ~month:m ~day:d = days)

let test_like_basics () =
  let check pat s expected =
    Alcotest.(check bool)
      (Printf.sprintf "'%s' LIKE '%s'" s pat)
      expected
      (Like.matches ~pattern:pat s)
  in
  check "%steel%" "stainless steel rod" true;
  check "%steel%" "stainless iron rod" false;
  check "steel" "steel" true;
  check "steel" "steels" false;
  check "s_eel" "steel" true;
  check "s_eel" "stteel" false;
  check "%" "" true;
  check "_%" "" false;
  check "a%b%c" "aXXbYYc" true;
  check "a%b%c" "acb" false;
  check "%%x" "x" true

let like_prop_literal =
  QCheck.Test.make ~name:"like: pattern without wildcards is equality"
    ~count:300
    QCheck.(string_of_size (Gen.int_range 0 12))
    (fun s ->
      QCheck.assume
        ((not (String.contains s '%')) && not (String.contains s '_'));
      Like.matches ~pattern:s s
      && (s = "" || not (Like.matches ~pattern:s (s ^ "!"))))

let like_prop_contains =
  QCheck.Test.make ~name:"like: %s% means substring" ~count:300
    QCheck.(pair (string_of_size (Gen.int_range 0 6)) (string_of_size (Gen.int_range 0 12)))
    (fun (needle, hay) ->
      QCheck.assume
        ((not (String.contains needle '%')) && not (String.contains needle '_'));
      let contains () =
        let nn = String.length needle and nh = String.length hay in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        nn = 0 || go 0
      in
      Like.matches ~pattern:("%" ^ needle ^ "%") hay = contains ())

let env_empty (_ : Col.t) = Value.Null

let test_eval_arith () =
  let e = Expr.Binop (Expr.Mul, Expr.Const (v_int 6), Expr.Const (v_int 7)) in
  Alcotest.(check bool) "6*7" true (Value.equal (Eval.expr env_empty e) (v_int 42));
  let div0 = Expr.Binop (Expr.Div, Expr.Const (v_int 1), Expr.Const (v_int 0)) in
  Alcotest.(check bool) "div by zero is null" true
    (Value.is_null (Eval.expr env_empty div0));
  (* an Int and a Float promote to Float in both operand orders, and
     division by a zero of either type is NULL *)
  let f x = Value.Float x in
  List.iter
    (fun (op, a, b, want) ->
      let got = Eval.arith op a b in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s %s = %s (got %s)" (Value.to_string a)
           (Expr.binop_to_string op) (Value.to_string b)
           (Value.to_string want) (Value.to_string got))
        true (got = want))
    [
      (Expr.Add, f 1.5, v_int 2, f 3.5);
      (Expr.Add, v_int 2, f 1.5, f 3.5);
      (Expr.Sub, f 1.5, v_int 2, f (-0.5));
      (Expr.Sub, v_int 2, f 1.5, f 0.5);
      (Expr.Mul, f 1.5, v_int 2, f 3.0);
      (Expr.Mul, v_int 2, f 1.5, f 3.0);
      (Expr.Div, f 1.5, v_int 2, f 0.75);
      (Expr.Div, v_int 2, f 1.5, f (2.0 /. 1.5));
      (Expr.Div, f 1.5, v_int 0, Value.Null);
      (Expr.Div, v_int 1, f 0.0, Value.Null);
      (Expr.Div, f 1.5, f 0.0, Value.Null);
    ]

let test_eval_null_propagation () =
  let e = Expr.Binop (Expr.Add, Expr.Const Value.Null, Expr.Const (v_int 2)) in
  Alcotest.(check bool) "null + 2 = null" true (Value.is_null (Eval.expr env_empty e))

let test_3vl_where_semantics () =
  (* NULL comparisons are Unknown and rows are kept only on True *)
  let p = Pred.Cmp (Pred.Eq, Expr.Const Value.Null, Expr.Const (v_int 1)) in
  Alcotest.(check bool) "unknown not kept" false (Eval.pred_holds env_empty p);
  Alcotest.(check bool) "NOT unknown not kept" false
    (Eval.pred_holds env_empty (Pred.Not p));
  let q = Pred.Or (p, Pred.Bool true) in
  Alcotest.(check bool) "unknown OR true" true (Eval.pred_holds env_empty q);
  let r = Pred.And (p, Pred.Bool false) in
  Alcotest.(check bool) "unknown AND false" false (Eval.pred_holds env_empty r)

let test_is_null () =
  let p = Pred.Is_null (Expr.Const Value.Null) in
  Alcotest.(check bool) "null is null" true (Eval.pred_holds env_empty p);
  let q = Pred.Is_null (Expr.Const (v_int 1)) in
  Alcotest.(check bool) "1 is not null" false (Eval.pred_holds env_empty q)

(* negate_cmp must complement the comparison in 2VL *)
let negate_cmp_prop =
  QCheck.Test.make ~name:"pred: negate_cmp complements" ~count:500
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      List.for_all
        (fun op ->
          let e1 = Expr.Const (v_int a) and e2 = Expr.Const (v_int b) in
          let t1 = Eval.pred env_empty (Pred.Cmp (op, e1, e2)) in
          let t2 = Eval.pred env_empty (Pred.Cmp (Pred.negate_cmp op, e1, e2)) in
          Pred.truth_not t1 = t2)
        [ Pred.Eq; Pred.Ne; Pred.Lt; Pred.Le; Pred.Gt; Pred.Ge ])

let flip_cmp_prop =
  QCheck.Test.make ~name:"pred: flip_cmp mirrors arguments" ~count:500
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      List.for_all
        (fun op ->
          let e1 = Expr.Const (v_int a) and e2 = Expr.Const (v_int b) in
          Eval.pred env_empty (Pred.Cmp (op, e1, e2))
          = Eval.pred env_empty (Pred.Cmp (Pred.flip_cmp op, e2, e1)))
        [ Pred.Eq; Pred.Ne; Pred.Lt; Pred.Le; Pred.Gt; Pred.Ge ])

let suite =
  [
    ( "base",
      [
        Alcotest.test_case "value cmp3" `Quick test_value_cmp3;
        Alcotest.test_case "value order total" `Quick test_value_order_total;
        Alcotest.test_case "date roundtrip" `Quick test_date_roundtrip;
        Alcotest.test_case "date arithmetic and parsing" `Quick test_date_arith;
        Helpers.qtest date_roundtrip_prop;
        Alcotest.test_case "like basics" `Quick test_like_basics;
        Helpers.qtest like_prop_literal;
        Helpers.qtest like_prop_contains;
        Alcotest.test_case "eval arithmetic" `Quick test_eval_arith;
        Alcotest.test_case "eval null propagation" `Quick test_eval_null_propagation;
        Alcotest.test_case "3VL where semantics" `Quick test_3vl_where_semantics;
        Alcotest.test_case "is null" `Quick test_is_null;
        Helpers.qtest negate_cmp_prop;
        Helpers.qtest flip_cmp_prop;
      ] );
  ]
