(** Tests for the relational-algebra layer: CNF conversion, predicate
    classification, equivalence classes, ranges and residual templates. *)

open Mv_base
module Cnf = Mv_relalg.Cnf
module Classify = Mv_relalg.Classify
module Equiv = Mv_relalg.Equiv
module Interval = Mv_relalg.Interval

let c t n = Col.make t n
let lq = c "lineitem" "l_quantity"
let lo = c "lineitem" "l_orderkey"
let oo = c "orders" "o_orderkey"
let ok = c "orders" "o_custkey"
let i x = Expr.Const (Value.Int x)
let colq = Expr.Col lq

(* random predicate generator over two integer "columns" *)
let pred_gen =
  let open QCheck.Gen in
  let atom =
    oneof
      [
        map2
          (fun op x ->
            let ops = [| Pred.Eq; Pred.Ne; Pred.Lt; Pred.Le; Pred.Gt; Pred.Ge |] in
            Pred.Cmp (ops.(op mod 6), Expr.Col lq, i x))
          small_nat (int_range (-5) 5);
        map
          (fun x -> Pred.Cmp (Pred.Eq, Expr.Col lo, i x))
          (int_range (-5) 5);
        return (Pred.Cmp (Pred.Eq, Expr.Col lq, Expr.Col lo));
      ]
  in
  let rec go depth =
    if depth = 0 then atom
    else
      frequency
        [
          (3, atom);
          (2, map2 (fun a b -> Pred.And (a, b)) (go (depth - 1)) (go (depth - 1)));
          (2, map2 (fun a b -> Pred.Or (a, b)) (go (depth - 1)) (go (depth - 1)));
          (1, map (fun a -> Pred.Not a) (go (depth - 1)));
        ]
  in
  go 3

let pred_arb = QCheck.make ~print:Pred.to_string pred_gen

(* CNF conversion preserves 3VL truth under every assignment *)
let cnf_equiv_prop =
  QCheck.Test.make ~name:"cnf: conversion preserves truth" ~count:500
    QCheck.(pair pred_arb (pair (int_range (-6) 6) (int_range (-6) 6)))
    (fun (p, (vq, vo)) ->
      let env col =
        if Col.equal col lq then Value.Int vq
        else if Col.equal col lo then Value.Int vo
        else Value.Null
      in
      let direct = Eval.pred env p in
      let via_cnf = Eval.pred env (Pred.conj (Cnf.conjuncts p)) in
      direct = via_cnf)

let cnf_shape_prop =
  QCheck.Test.make ~name:"cnf: conjuncts contain no top-level AND" ~count:300
    pred_arb
    (fun p ->
      List.for_all
        (fun conj ->
          let rec no_and = function
            | Pred.And _ -> false
            | Pred.Or (a, b) -> no_and a && no_and b
            | Pred.Not x -> no_and x
            | _ -> true
          in
          no_and conj)
        (Cnf.conjuncts p))

let test_classify () =
  let conjs =
    [
      Pred.Cmp (Pred.Eq, Expr.Col lo, Expr.Col oo);
      Pred.Cmp (Pred.Le, colq, i 10);
      Pred.Cmp (Pred.Ge, i 2, colq);
      (* flipped: 2 >= q is a range on q *)
      Pred.Cmp (Pred.Ne, colq, i 5);
      (* <> is residual *)
      Pred.Like (Expr.Col (c "part" "p_name"), "%x%");
      Pred.Cmp (Pred.Eq, colq, Expr.Col lo);
    ]
  in
  let cl = Classify.classify conjs in
  Alcotest.(check int) "col eqs" 2 (List.length cl.Classify.col_eqs);
  Alcotest.(check int) "ranges" 2 (List.length cl.Classify.ranges);
  Alcotest.(check int) "residuals" 2 (List.length cl.Classify.residuals);
  (* the flipped range must arrive as q <= 2 *)
  let has_le2 =
    List.exists
      (fun (col, op, v) ->
        Col.equal col lq && op = Pred.Le && Value.equal v (Value.Int 2))
      cl.Classify.ranges
  in
  Alcotest.(check bool) "flipped comparison normalized" true has_le2

let test_equiv_classes () =
  let schema = Mv_tpch.Schema.schema in
  let equiv =
    Equiv.build schema ~tables:[ "lineitem"; "orders" ]
      ~col_eqs:[ (lo, oo); (oo, ok) ]
  in
  Alcotest.(check bool) "lo ~ ok transitively" true (Equiv.same equiv lo ok);
  Alcotest.(check bool) "lq alone" false (Equiv.same equiv lq lo);
  Alcotest.(check int) "one nontrivial class" 1
    (List.length (Equiv.nontrivial_classes equiv));
  let cls = Equiv.class_of equiv lo in
  Alcotest.(check int) "class size 3" 3 (Col.Set.cardinal cls)

let test_class_within () =
  let schema = Mv_tpch.Schema.schema in
  let q = Equiv.build schema ~tables:[ "lineitem" ] ~col_eqs:[ (lo, lq) ] in
  Alcotest.(check bool) "subset ok" true
    (Equiv.class_within q (Col.Set.of_list [ lo; lq ]));
  Alcotest.(check bool) "not within" false
    (Equiv.class_within q (Col.Set.of_list [ lo; c "lineitem" "l_partkey" ]))

(* interval properties *)
let bound_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Interval.Unbounded);
        (3, map (fun x -> Interval.Incl (Value.Int x)) (int_range (-10) 10));
        (3, map (fun x -> Interval.Excl (Value.Int x)) (int_range (-10) 10));
      ])

let interval_gen =
  QCheck.Gen.map2 (fun lo hi -> { Interval.lo; hi }) bound_gen bound_gen

let interval_arb = QCheck.make ~print:Interval.to_string interval_gen

let mem_all i vs = List.filter (fun v -> Interval.mem (Value.Int v) i) vs

let sample = List.init 41 (fun k -> k - 20)

let interval_contains_prop =
  QCheck.Test.make ~name:"interval: contains agrees with membership" ~count:1000
    QCheck.(pair interval_arb interval_arb)
    (fun (a, b) ->
      if Interval.contains ~outer:a ~inner:b then
        (* every sampled member of b is in a *)
        List.for_all
          (fun v -> Interval.mem (Value.Int v) a)
          (mem_all b sample)
      else true)

let interval_intersect_prop =
  QCheck.Test.make ~name:"interval: intersection is pointwise and" ~count:1000
    QCheck.(pair interval_arb interval_arb)
    (fun (a, b) ->
      let inter = Interval.intersect a b in
      List.for_all
        (fun v ->
          Interval.mem (Value.Int v) inter
          = (Interval.mem (Value.Int v) a && Interval.mem (Value.Int v) b))
        sample)

let interval_to_preds_prop =
  QCheck.Test.make ~name:"interval: to_preds encodes membership" ~count:1000
    interval_arb
    (fun iv ->
      let preds = Interval.to_preds (Expr.Col lq) iv in
      List.for_all
        (fun v ->
          let env col =
            if Col.equal col lq then Value.Int v else Value.Null
          in
          List.for_all (Eval.pred_holds env) preds
          = Interval.mem (Value.Int v) iv)
        sample)

let test_residual_templates () =
  let r1 =
    Mv_relalg.Residual.of_pred
      (Pred.Cmp (Pred.Gt, Expr.Binop (Expr.Mul, Expr.Col lq, Expr.Col lo), i 100))
  in
  let r2 =
    Mv_relalg.Residual.of_pred
      (Pred.Cmp (Pred.Gt, Expr.Binop (Expr.Mul, Expr.Col lq, Expr.Col oo), i 100))
  in
  Alcotest.(check string) "same template" r1.Mv_relalg.Residual.template
    r2.Mv_relalg.Residual.template;
  let schema = Mv_tpch.Schema.schema in
  let equiv_eq =
    Equiv.build schema ~tables:[ "lineitem"; "orders" ] ~col_eqs:[ (lo, oo) ]
  in
  let equiv_ne =
    Equiv.build schema ~tables:[ "lineitem"; "orders" ] ~col_eqs:[]
  in
  Alcotest.(check bool) "match when equivalent" true
    (Mv_relalg.Residual.matches equiv_eq r1 r2);
  Alcotest.(check bool) "no match otherwise" false
    (Mv_relalg.Residual.matches equiv_ne r1 r2)

let test_spjg_validation () =
  let bad () =
    Mv_relalg.Spjg.make ~tables:[ "lineitem" ] ~where:[]
      ~group_by:(Some [ Expr.Col lq ])
      ~out:[ Mv_relalg.Spjg.scalar "x" (Expr.Col lo) ]
  in
  Alcotest.(check bool) "non-grouped scalar rejected" true
    (try
       ignore (bad ());
       false
     with Mv_relalg.Spjg.Invalid _ -> true);
  let dup () =
    Mv_relalg.Spjg.make ~tables:[ "lineitem" ] ~where:[] ~group_by:None
      ~out:
        [
          Mv_relalg.Spjg.scalar "x" (Expr.Col lo);
          Mv_relalg.Spjg.scalar "x" (Expr.Col lq);
        ]
  in
  Alcotest.(check bool) "duplicate names rejected" true
    (try
       ignore (dup ());
       false
     with Mv_relalg.Spjg.Invalid _ -> true)

let test_check_indexable () =
  let agg_no_count =
    Mv_relalg.Spjg.make ~tables:[ "lineitem" ] ~where:[]
      ~group_by:(Some [ Expr.Col lq ])
      ~out:
        [
          Mv_relalg.Spjg.scalar "l_quantity" (Expr.Col lq);
          Mv_relalg.Spjg.aggregate "s" (Mv_relalg.Spjg.Sum (Expr.Col lo));
        ]
  in
  Alcotest.(check bool) "missing count rejected" true
    (Result.is_error (Mv_relalg.Spjg.check_indexable agg_no_count))

(* ---- the interned classes against the string-keyed reference ----

   A case picks a subset of the TPC-H tables and column equalities among
   their columns, builds both structures, then copies them, registers more
   tables in the copies and merges there. Both must agree on every read,
   on the copies and on the originals, and the originals must not see the
   copies' merges. Reads only touch registered columns: the reference's
   [find] registers unknown keys, which would change its partition. *)

let tpch = Mv_tpch.Schema.schema

let all_tables =
  List.map (fun (td : Mv_catalog.Table_def.t) -> td.Mv_catalog.Table_def.name)
    tpch.Mv_catalog.Schema.tables

let cols_of tables =
  List.concat_map
    (fun tbl ->
      List.map (c tbl)
        (Mv_catalog.Table_def.column_names
           (Mv_catalog.Schema.table_exn tpch tbl)))
    tables

type equiv_case = {
  tables : string list;
  eqs : (int * int) list;  (** indexes into the columns of [tables] *)
  more : string list;
  copy_eqs : (int * int) list;  (** indexes into the columns of all tables *)
  within : int list list;
}

let equiv_case_gen =
  let open QCheck.Gen in
  let subset =
    map
      (fun bits -> List.filteri (fun i _ -> bits land (1 lsl i) <> 0) all_tables)
      (int_bound 255)
  in
  let pairs = list_size (int_range 0 8) (pair (int_bound 999) (int_bound 999)) in
  map
    (fun ((first, tables), (eqs, (more, copy_eqs)), within) ->
      let tables =
        if tables = [] then [ List.nth all_tables first ] else tables
      in
      { tables; eqs; more; copy_eqs; within })
    (triple
       (pair (int_bound 7) subset)
       (pair pairs (pair subset pairs))
       (list_size (int_range 0 4) (list_size (int_range 0 4) (int_bound 999))))

let print_case k =
  Printf.sprintf "tables=%s eqs=%s more=%s copy_eqs=%s"
    (String.concat "," k.tables)
    (String.concat ";"
       (List.map (fun (a, b) -> Printf.sprintf "%d=%d" a b) k.eqs))
    (String.concat "," k.more)
    (String.concat ";"
       (List.map (fun (a, b) -> Printf.sprintf "%d=%d" a b) k.copy_eqs))

let sets_of_sets l = List.sort Col.Set.compare l

let agree ~cols e r =
  let same_sets a b =
    List.equal Col.Set.equal (sets_of_sets a) (sets_of_sets b)
  in
  same_sets (Equiv.classes e) (Ref_equiv.classes r)
  && same_sets (Equiv.nontrivial_classes e) (Ref_equiv.nontrivial_classes r)
  && List.for_all
       (fun x ->
         Col.Set.equal (Equiv.class_of e x) (Ref_equiv.class_of r x)
         && List.for_all (fun y -> Equiv.same e x y = Ref_equiv.same r x y) cols)
       cols

let equiv_model_prop =
  QCheck.Test.make ~name:"equiv: interned classes agree with the reference"
    ~count:(Helpers.qcheck_count 300)
    (QCheck.make ~print:print_case equiv_case_gen)
    (fun k ->
      let cols = cols_of k.tables in
      let pick l i = List.nth l (i mod List.length l) in
      let col_eqs = List.map (fun (a, b) -> (pick cols a, pick cols b)) k.eqs in
      let e = Equiv.build tpch ~tables:k.tables ~col_eqs in
      let r = Ref_equiv.build tpch ~tables:k.tables ~col_eqs in
      let before = sets_of_sets (Equiv.classes e) in
      let e' = Equiv.copy e and r' = Ref_equiv.copy r in
      let more = List.filter (fun t -> not (List.mem t k.tables)) k.more in
      Equiv.add_tables tpch e' more;
      Ref_equiv.add_tables tpch r' more;
      let cols' = cols @ cols_of more in
      List.iter
        (fun (a, b) ->
          let a = pick cols' a and b = pick cols' b in
          Equiv.merge e' a b;
          Ref_equiv.merge r' a b)
        k.copy_eqs;
      let within_ok eq rf cs =
        List.for_all
          (fun idx ->
            let set = Col.Set.of_list (List.map (pick cs) idx) in
            Equiv.class_within eq set = Ref_equiv.class_within rf set)
          k.within
      in
      agree ~cols e r && agree ~cols:cols' e' r'
      && within_ok e r cols && within_ok e' r' cols'
      && List.equal Col.Set.equal before (sets_of_sets (Equiv.classes e)))

let suite =
  [
    ("prop_equiv", [ Helpers.qtest equiv_model_prop ]);
    ( "relalg",
      [
        Helpers.qtest cnf_equiv_prop;
        Helpers.qtest cnf_shape_prop;
        Alcotest.test_case "classify conjuncts" `Quick test_classify;
        Alcotest.test_case "equivalence classes" `Quick test_equiv_classes;
        Alcotest.test_case "class within" `Quick test_class_within;
        Helpers.qtest interval_contains_prop;
        Helpers.qtest interval_intersect_prop;
        Helpers.qtest interval_to_preds_prop;
        Alcotest.test_case "residual templates" `Quick test_residual_templates;
        Alcotest.test_case "spjg validation" `Quick test_spjg_validation;
        Alcotest.test_case "check indexable" `Quick test_check_indexable;
      ] );
  ]
