(** Property tests for the lattice index of section 4.1, over interned
    bitset keys: searches must agree with brute force over random families
    of sets, through arbitrary interleavings of insertions and deletions,
    and every version a sequence of updates produced must keep its keys,
    payloads and invariants. *)

module Bitset = Mv_util.Bitset
module Lattice = Mv_core.Lattice

(* sets over a universe of 6 elements, encoded in 6 bits — the encoding is
   exactly a one-word bitset, so [of_int] builds the key directly *)
let set_of_int n =
  let rec go i acc =
    if i >= 6 then acc
    else go (i + 1) (if n land (1 lsl i) <> 0 then Bitset.add acc i else acc)
  in
  go 0 Bitset.empty

let ops_gen =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (pair (frequency [ (4, return `Insert); (1, return `Delete) ])
         (int_range 0 63)))

let ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (fun (op, n) ->
             (match op with `Insert -> "+" | `Delete -> "-")
             ^ string_of_int n)
           ops))
    ops_gen

(* Apply ops through [update]: an insert bumps the key's payload, the pair
   of the key and its insert count; a delete removes the key. Returns
   every version, oldest first, each with the reference it must hold: an
   association list from the key's int encoding to its count. *)
let versions ops =
  let step (t, reference) (op, n) =
    let key = set_of_int n in
    match op with
    | `Insert ->
        let count =
          1 + Option.value (List.assoc_opt n reference) ~default:0
        in
        ( Lattice.update t key (fun p ->
              Some (key, 1 + Option.fold ~none:0 ~some:snd p)),
          (n, count) :: List.remove_assoc n reference )
    | `Delete ->
        (Lattice.update t key (fun _ -> None), List.remove_assoc n reference)
  in
  List.rev
    (List.fold_left
       (fun acc op -> step (List.hd acc) op :: acc)
       [ (Lattice.empty, []) ]
       ops)

let build ops =
  let t, reference = List.nth (versions ops) (List.length ops) in
  (t, List.map (fun (n, _) -> set_of_int n) reference)

let keys_of payloads =
  List.sort compare (List.map (fun (k, _) -> Bitset.elements k) payloads)

let subsets_prop =
  QCheck.Test.make ~name:"lattice: subsets_of agrees with brute force"
    ~count:300
    QCheck.(pair ops_arb (int_range 0 63))
    (fun (ops, probe) ->
      let t, reference = build ops in
      let key = set_of_int probe in
      let expected =
        List.filter (fun k -> Bitset.subset k key) reference
        |> List.map Bitset.elements |> List.sort compare
      in
      keys_of
        (Lattice.search t ~dir:`Up ~pred:(fun k -> Bitset.subset k key))
      = expected)

let supersets_prop =
  QCheck.Test.make ~name:"lattice: supersets_of agrees with brute force"
    ~count:300
    QCheck.(pair ops_arb (int_range 0 63))
    (fun (ops, probe) ->
      let t, reference = build ops in
      let key = set_of_int probe in
      let expected =
        List.filter (fun k -> Bitset.subset key k) reference
        |> List.map Bitset.elements |> List.sort compare
      in
      keys_of (Lattice.search t ~dir:`Down ~pred:(Bitset.subset key))
      = expected)

(* One version against its reference: exactly its keys and payloads, supers
   are minimal strict supersets, subs strict subsets, the two link
   directions agree, and tops/roots are exactly the keys without
   supers/subs. *)
let version_ok (t, reference) =
  let keys = List.map (fun (n, _) -> set_of_int n) reference in
  let contents =
    Lattice.fold
      (fun k (pk, c) acc -> (Bitset.equal k pk, Bitset.elements k, c) :: acc)
      t []
  in
  let { Lattice.links; tops; roots } = Lattice.shape t in
  let strictly_below a b = Bitset.subset a b && not (Bitset.equal a b) in
  let mem k = List.exists (Bitset.equal k) in
  let supers_of k =
    List.find_map
      (fun (k', supers, _) -> if Bitset.equal k k' then Some supers else None)
      links
  in
  Lattice.size t = List.length reference
  && List.sort compare contents
     = List.sort compare
         (List.map
            (fun (n, c) -> (true, Bitset.elements (set_of_int n), c))
            reference)
  && List.for_all
       (fun (k, supers, subs) ->
         List.for_all
           (fun s ->
             strictly_below k s
             && not
                  (List.exists
                     (fun mid -> strictly_below k mid && strictly_below mid s)
                     keys))
           supers
         && List.for_all
              (fun b ->
                strictly_below b k
                && Option.fold ~none:false ~some:(mem k) (supers_of b))
              subs
         && mem k tops = (supers = [])
         && mem k roots = (subs = []))
       links

(* Every version along a sequence of updates, checked after the whole
   sequence ran: an update must never write what an earlier version can
   reach. *)
let invariants_prop =
  QCheck.Test.make
    ~name:"lattice: structural invariants hold in every version" ~count:300
    ops_arb (fun ops -> List.for_all version_ok (versions ops))

(* monotone predicate search: the generic traversal must equal brute force
   for an intersection-nonempty condition (the output-column condition of
   section 4.2.3) *)
let custom_search_prop =
  QCheck.Test.make ~name:"lattice: monotone predicate search" ~count:300
    QCheck.(pair ops_arb (pair (int_range 0 63) (int_range 0 63)))
    (fun (ops, (c1, c2)) ->
      let t, reference = build ops in
      let classes =
        List.filter
          (fun s -> not (Bitset.is_empty s))
          [ set_of_int c1; set_of_int c2 ]
      in
      let pred k =
        List.for_all (fun cls -> not (Bitset.inter_empty k cls)) classes
      in
      let got = keys_of (Lattice.search t ~dir:`Down ~pred) in
      let expected =
        List.filter pred reference
        |> List.map Bitset.elements |> List.sort compare
      in
      got = expected)

(* The fact the serving front's screen rests on: linking or unlinking a
   key that fails a monotone predicate leaves the search for that
   predicate unchanged, element for element, in both directions. The
   failing key is linked when absent and unlinked when present. *)
let failing_key_prop =
  QCheck.Test.make
    ~name:"lattice: a failing key changes no hit, nor the hits' order"
    ~count:300
    QCheck.(triple ops_arb (pair (int_range 0 63) (int_range 0 63)) bool)
    (fun (ops, (k, probe), up) ->
      let t, _ = build ops in
      let key = set_of_int k and s = set_of_int probe in
      let dir, pred =
        if up then (`Up, fun x -> Bitset.subset x s)
        else (`Down, Bitset.subset s)
      in
      QCheck.assume (not (pred key));
      let t' =
        Lattice.update t key (function
          | Some _ -> None
          | None -> Some (key, 1))
      in
      let hits t =
        List.map (fun (k, _) -> Bitset.elements k) (Lattice.search t ~dir ~pred)
      in
      hits t' = hits t)

(* The filter tree's walk against {!Lattice.search}, its reference: the
   same payloads, in the same order, for a subset ([`Up]), a superset
   ([`Down]) and a class-intersection ([`Down]) predicate. The walk runs
   as the filter tree nests it: above the hits an earlier walk left on
   the scratch stack, with another lattice walked and popped between two
   of its pops, and with a predicate that re-enters the lattice through
   a search and a walk of its own. *)
let walk_prop =
  QCheck.Test.make ~name:"lattice: walk pops search's hits in order"
    ~count:300
    QCheck.(
      quad ops_arb ops_arb (pair (int_range 0 63) (int_range 0 2)) bool)
    (fun (ops, ops2, (probe, kind), reenter) ->
      let t, _ = build ops and t2, _ = build ops2 in
      let q = set_of_int probe in
      let dir, pred =
        match kind with
        | 0 -> (`Up, fun q k -> Bitset.subset k q)
        | 1 -> (`Down, fun q k -> Bitset.subset q k)
        | _ -> (`Down, fun q k -> not (Bitset.inter_empty k q))
      in
      let expected t = Lattice.search t ~dir ~pred:(pred q) in
      let reentrant q k =
        let inner = Lattice.scratch () in
        let n = Lattice.walk inner t ~dir ~pred q in
        let popped = List.init n (fun _ -> Lattice.pop inner) in
        popped = expected t
        && Lattice.search t ~dir ~pred:(pred q) = expected t
        && pred q k
      in
      let pred_t = if reenter then reentrant else pred in
      let s = Lattice.scratch () in
      let pop_all n = List.init n (fun _ -> Lattice.pop s) in
      let below = Lattice.walk s t2 ~dir ~pred q in
      let n = Lattice.walk s t ~dir ~pred:pred_t q in
      let hits, nested =
        if n = 0 then ([], expected t2)
        else
          let first = Lattice.pop s in
          let nested = pop_all (Lattice.walk s t2 ~dir ~pred q) in
          (first :: pop_all (n - 1), nested)
      in
      hits = expected t && nested = expected t2 && pop_all below = expected t2)

let test_update_present_key () =
  let k = set_of_int 5 in
  let t1 = Lattice.update Lattice.empty k (fun _ -> Some 1) in
  let t2 = Lattice.update t1 k (fun p -> Option.map succ p) in
  Alcotest.(check int) "size 1" 1 (Lattice.size t2);
  Alcotest.(check (option int)) "new payload" (Some 2) (Lattice.find t2 k);
  Alcotest.(check (option int))
    "the earlier version keeps its payload" (Some 1) (Lattice.find t1 k);
  Alcotest.(check bool)
    "removing an absent key returns the lattice" true
    (Lattice.update t2 (set_of_int 7) (fun _ -> None) == t2)

(* A lattice whose payload is each key itself. *)
let of_keys keys =
  List.fold_left
    (fun t k -> Lattice.update t k (fun _ -> Some k))
    Lattice.empty keys

let sorted_keys ks = List.sort compare (List.map Bitset.elements ks)

let test_reentrant_search () =
  (* a predicate that re-enters the lattice with a full search of its own
     must not corrupt the outer search's dedup. Diamond {0},{1},{0,1}: with
     the old shared stamp/mark scheme the inner search re-stamped every
     node, so the outer traversal saw the join node {0,1} as unvisited from
     its second root and emitted it twice (or, reading the live stamp,
     skipped nodes entirely). Per-search scratch state keeps the two
     traversals independent. *)
  let t = of_keys (List.map set_of_int [ 1; 2; 3 ]) in
  let pred _k =
    ignore (Lattice.search t ~dir:`Down ~pred:(fun _ -> true));
    true
  in
  let got = sorted_keys (Lattice.search t ~dir:`Up ~pred) in
  Alcotest.(check (list (list int)))
    "each node exactly once"
    [ [ 0 ]; [ 0; 1 ]; [ 1 ] ]
    got

(* The converse, and why the serving front re-runs a search the screen
   does not clear: linking a key that passes reorders the other hits. *)
let test_passing_key_reorders () =
  let t =
    of_keys (List.map Bitset.of_list [ [ 1; 2; 3; 4 ]; [ 1; 2 ]; [ 1; 3 ] ])
  in
  let supersets_of_1 t =
    List.map Bitset.elements
      (Lattice.search t ~dir:`Down ~pred:(Bitset.subset (Bitset.singleton 1)))
  in
  Alcotest.(check (list (list int)))
    "B C S" [ [ 1; 2 ]; [ 1; 3 ]; [ 1; 2; 3; 4 ] ] (supersets_of_1 t);
  let k = Bitset.of_list [ 1; 2; 4 ] in
  Alcotest.(check (list (list int)))
    "C B K S once K is linked"
    [ [ 1; 3 ]; [ 1; 2 ]; [ 1; 2; 4 ]; [ 1; 2; 3; 4 ] ]
    (supersets_of_1 (Lattice.update t k (fun _ -> Some k)))

let test_paper_figure1 () =
  (* the eight key sets of Figure 1: A, B, D, AB, BE, ABC, ABF, BCDE —
     letters interned as bits A=0, B=1, ... *)
  let mk s =
    Bitset.of_list
      (List.init (String.length s) (fun i -> Char.code s.[i] - Char.code 'A'))
  in
  let t =
    of_keys
      (List.map mk [ "A"; "B"; "D"; "AB"; "BE"; "ABC"; "ABF"; "BCDE" ])
  in
  (* search supersets of AB: AB, ABC, ABF (the paper's worked example) *)
  let got =
    sorted_keys (Lattice.search t ~dir:`Down ~pred:(Bitset.subset (mk "AB")))
  in
  Alcotest.(check (list (list int)))
    "supersets of AB"
    [ [ 0; 1 ]; [ 0; 1; 2 ]; [ 0; 1; 5 ] ]
    got;
  (* tops and roots per Figure 1 *)
  let shape = Lattice.shape t in
  Alcotest.(check int) "3 tops" 3 (List.length shape.Lattice.tops);
  Alcotest.(check int) "3 roots" 3 (List.length shape.Lattice.roots)

let suite =
  [
    ( "lattice",
      [
        Alcotest.test_case "update under a present key" `Quick
          test_update_present_key;
        Alcotest.test_case "paper figure 1" `Quick test_paper_figure1;
        Alcotest.test_case "reentrant search keeps dedup" `Quick
          test_reentrant_search;
        Alcotest.test_case "a passing key reorders the hits" `Quick
          test_passing_key_reorders;
        Helpers.qtest subsets_prop;
        Helpers.qtest supersets_prop;
        Helpers.qtest invariants_prop;
        Helpers.qtest custom_search_prop;
        Helpers.qtest failing_key_prop;
        Helpers.qtest walk_prop;
      ] );
  ]
