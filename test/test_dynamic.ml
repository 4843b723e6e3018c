(** Dynamic-registry tests: the epoch protocol, the model-based sweep and
    the persistence of published snapshots (sequentially, and read from a
    second domain while the first mutates).

    The model: a registry mutated by interleaved add/drop ops must be
    indistinguishable — identical candidate sets and substitutes — from
    a registry rebuilt from scratch over the currently-live views after
    every step. qcheck generates the op sequences and shrinks failures to a
    minimal interleaving.

    The suite is named with a [prop_] prefix so the @runtest-quick alias
    picks it up (MVIEW_QCHECK_COUNT shrinks the case count). *)

module H = Mv_experiments.Harness
module R = Mv_core.Registry
module FT = Mv_core.Filter_tree
module A = Mv_relalg.Analysis

(* A small shared pool of views and queries; ops index into it. *)
let nviews = 30

let nqueries = 8

let wl = lazy (H.make_workload ~nviews ~nqueries ())

let view_name (v : Mv_core.View.t) = v.Mv_core.View.name

let nth_view i = List.nth (Lazy.force wl).H.views (i mod nviews)

let nth_query j = List.nth (Lazy.force wl).H.queries (j mod nqueries)

let analyses =
  lazy
    (let w = Lazy.force wl in
     List.map (A.analyze w.H.schema) w.H.queries)

(* Candidate sets as sorted name lists: the incrementally-mutated tree may
   enumerate in a different order than a scratch-built one, and order is
   not part of the spec — the SET is. *)
let candidate_names reg qa =
  List.sort compare (List.map view_name (R.candidates reg qa))

let substitute_sqls reg qa =
  List.sort compare
    (List.map Mv_core.Substitute.to_sql (R.find_substitutes reg qa))

let scratch_of views =
  let w = Lazy.force wl in
  let reg = R.create w.H.schema in
  List.iter (R.add_prebuilt reg) views;
  reg

(* ---------------------------------------------------------------- *)
(* The model-based property                                         *)
(* ---------------------------------------------------------------- *)

type op = Add of int | Drop of int | Query of int

let op_of_pair (k, i) =
  match k mod 3 with 0 -> Add i | 1 -> Drop i | _ -> Query i

let show_op = function
  | Add i -> Printf.sprintf "Add %d" (i mod nviews)
  | Drop i -> Printf.sprintf "Drop %d" (i mod nviews)
  | Query j -> Printf.sprintf "Query %d" (j mod nqueries)

(* Apply one op to both the dynamic registry and the model (the list of
   live views, in registration order); on [Query], the dynamic registry
   must agree with a scratch rebuild of the model. *)
let check_sequence pairs =
  let ops = List.map op_of_pair pairs in
  let w = Lazy.force wl in
  let reg = R.create w.H.schema in
  let live = ref [] in
  let fail op fmt =
    Printf.ksprintf
      (fun msg ->
        QCheck.Test.fail_reportf "after %s (live=%d): %s" (show_op op)
          (List.length !live) msg)
      fmt
  in
  let step op =
    (match op with
    | Add i ->
        let v = nth_view i in
        if not (List.exists (fun u -> view_name u = view_name v) !live) then (
          R.add_prebuilt reg v;
          live := !live @ [ v ])
    | Drop i ->
        let name = view_name (nth_view i) in
        R.remove_view reg name;
        live := List.filter (fun u -> view_name u <> name) !live
    | Query _ -> ());
    if R.view_count reg <> List.length !live then
      fail op "view_count %d <> model %d" (R.view_count reg)
        (List.length !live);
    match op with
    | Query j ->
        let qa = List.nth (Lazy.force analyses) (j mod nqueries) in
        let fresh = scratch_of !live in
        let dyn_c = candidate_names reg qa
        and ref_c = candidate_names fresh qa in
        if dyn_c <> ref_c then
          fail op "candidates {%s} <> scratch {%s}"
            (String.concat "," dyn_c) (String.concat "," ref_c);
        if substitute_sqls reg qa <> substitute_sqls fresh qa then
          fail op "substitutes differ from scratch rebuild"
    | Add _ | Drop _ -> ()
  in
  List.iter step ops;
  (* final sweep: every query agrees with a full rebuild *)
  let fresh = scratch_of !live in
  List.iteri
    (fun j qa ->
      if candidate_names reg qa <> candidate_names fresh qa then
        QCheck.Test.fail_reportf
          "final state: query %d candidates differ from scratch rebuild" j)
    (Lazy.force analyses);
  true

let model_prop =
  QCheck.Test.make
    ~name:"dynamic registry: add/drop interleavings match scratch rebuilds"
    ~count:(Helpers.qcheck_count 30)
    QCheck.(list_of_size (Gen.int_range 0 25) (pair small_nat small_nat))
    check_sequence

(* ---------------------------------------------------------------- *)
(* Epoch protocol units                                             *)
(* ---------------------------------------------------------------- *)

let test_epoch_protocol () =
  let w = Lazy.force wl in
  let reg = R.create w.H.schema in
  Alcotest.(check int) "empty registry is epoch 0" 0 (R.epoch reg);
  let v = List.hd w.H.views in
  R.add_prebuilt reg v;
  Alcotest.(check int) "add bumps the epoch" 1 (R.epoch reg);
  R.remove_view reg "no_such_view";
  Alcotest.(check int) "unknown drop is a no-op" 1 (R.epoch reg);
  R.remove_view reg (view_name v);
  Alcotest.(check int) "drop bumps the epoch" 2 (R.epoch reg);
  R.remove_view reg (view_name v);
  Alcotest.(check int) "re-drop is a no-op" 2 (R.epoch reg);
  R.add_prebuilt reg v;
  Alcotest.(check int) "re-add bumps again" 3 (R.epoch reg)

let test_duplicate_add_raises () =
  let w = Lazy.force wl in
  let reg = R.create w.H.schema in
  let v = List.hd w.H.views in
  R.add_prebuilt reg v;
  let before = R.snapshot reg in
  Alcotest.check_raises "duplicate add"
    (R.Duplicate_view (view_name v))
    (fun () -> R.add_prebuilt reg v);
  Alcotest.(check int) "failed add leaves the epoch alone" before.R.snap_epoch
    (R.epoch reg);
  (* a definition the view layer rejects publishes nothing either *)
  Alcotest.(check bool) "unindexable definition rejected" true
    (match
       R.add_view reg ~indexes:[ [ "no_such_col" ] ] ~name:"unindexable"
         (Mv_core.View.spjg v)
     with
    | _ -> false
    | exception Mv_core.View.Rejected _ -> true);
  Alcotest.(check bool) "failed adds publish nothing" true
    (R.snapshot reg == before)

(* Removing every view must return the filter tree to its empty-tree node
   count: emptied lattice keys are removed, so churn never accumulates
   dead index nodes. *)
let test_tree_prunes_to_baseline () =
  let w = Lazy.force wl in
  let reg = R.create w.H.schema in
  let views = H.take 20 w.H.views in
  let nodes () = FT.stats (R.snapshot reg).R.snap_tree in
  let baseline = nodes () in
  List.iter (R.add_prebuilt reg) views;
  Alcotest.(check bool) "indexing grew the tree" true (nodes () > baseline);
  List.iter (fun v -> R.remove_view reg (view_name v)) views;
  Alcotest.(check int) "all views gone" 0 (R.view_count reg);
  Alcotest.(check int) "lattice nodes pruned back to baseline" baseline
    (nodes ());
  (* and the emptied tree yields no candidates *)
  List.iter
    (fun qa ->
      Alcotest.(check int) "no candidates from an emptied registry" 0
        (List.length (R.candidates reg qa)))
    (Lazy.force analyses)

(* ---------------------------------------------------------------- *)
(* Persistence: every published snapshot stays what it was          *)
(* ---------------------------------------------------------------- *)

(* The model property's ops (a [Query] publishes nothing here), then a
   drop of every view, so each case also ends on an empty registry. *)
let mutations pairs =
  List.map op_of_pair pairs @ List.init nviews (fun i -> Drop i)

let live_in views v = List.exists (fun u -> view_name u = view_name v) views

(* The population at every epoch along [ops]: index e holds the views of
   the snapshot published at epoch e, in insertion order. A re-add of a
   live view or a drop of an absent one publishes nothing. *)
let populations ops =
  let step (live, acc) = function
    | Add i when not (live_in live (nth_view i)) ->
        let live = live @ [ nth_view i ] in
        (live, live :: acc)
    | Drop i when live_in live (nth_view i) ->
        let name = view_name (nth_view i) in
        let live = List.filter (fun u -> view_name u <> name) live in
        (live, live :: acc)
    | Add _ | Drop _ | Query _ -> (live, acc)
  in
  Array.of_list (List.rev (snd (List.fold_left step ([], [ [] ]) ops)))

let apply reg = function
  | Add i -> (
      try R.add_prebuilt reg (nth_view i) with R.Duplicate_view _ -> ())
  | Drop i -> R.remove_view reg (view_name (nth_view i))
  | Query _ -> ()

let mutations_arb =
  QCheck.make
    ~print:(fun pairs ->
      String.concat ";" (List.map (fun p -> show_op (op_of_pair p)) pairs))
    QCheck.Gen.(list_size (int_range 0 40) (pair small_nat small_nat))

let plan_name backjoins = if backjoins then "backjoin_plan" else "default_plan"

(* The linear reference's candidate names over one population, memoized
   per (epoch, query). *)
let reference_at ~backjoins pops =
  let qas = Array.of_list (Lazy.force analyses) in
  let memo = Hashtbl.create 64 in
  fun e qi ->
    match Hashtbl.find_opt memo (e, qi) with
    | Some names -> names
    | None ->
        let names =
          List.sort compare
            (List.map view_name
               (Helpers.reference_candidates ~backjoins pops.(e) qas.(qi)))
        in
        Hashtbl.add memo (e, qi) names;
        names

(* Apply the sequence, keeping every snapshot published along the way.
   Only after the whole sequence — the final drop of every view included —
   is each kept snapshot checked: its population must be the model's at
   its epoch, and its candidates must equal the linear reference over
   that population. The emptied tree is back at the empty-tree node
   count. *)
let check_snapshots pairs =
  let muts = mutations pairs in
  let pops = populations muts in
  let w = Lazy.force wl in
  List.iter
    (fun backjoins ->
      let fail fmt =
        Printf.ksprintf
          (fun msg ->
            QCheck.Test.fail_reportf "%s: %s" (plan_name backjoins) msg)
          fmt
      in
      let reg = R.create ~backjoins w.H.schema in
      let empty_nodes = FT.stats (R.snapshot reg).R.snap_tree in
      let kept = ref [ R.snapshot reg ] in
      List.iter
        (fun m ->
          apply reg m;
          let s = R.snapshot reg in
          if s != List.hd !kept then kept := s :: !kept)
        muts;
      if List.length !kept <> Array.length pops then
        fail "%d snapshots published, the model has %d epochs"
          (List.length !kept) (Array.length pops);
      let reference = reference_at ~backjoins pops in
      List.iter
        (fun (s : R.snapshot) ->
          let e = s.R.snap_epoch in
          if List.map view_name s.R.snap_views <> List.map view_name pops.(e)
          then fail "snapshot at epoch %d holds another population" e;
          List.iteri
            (fun qi qa ->
              let got =
                List.sort compare
                  (List.map view_name (R.candidates ~snap:s reg qa))
              in
              if got <> reference e qi then
                fail "epoch %d, query %d: candidates {%s} <> reference {%s}"
                  e qi (String.concat "," got)
                  (String.concat "," (reference e qi)))
            (Lazy.force analyses))
        !kept;
      let nodes = FT.stats (R.snapshot reg).R.snap_tree in
      if nodes <> empty_nodes then
        fail "%d lattice nodes after dropping every view, empty tree has %d"
          nodes empty_nodes)
    [ false; true ];
  true

let snapshots_prop =
  QCheck.Test.make
    ~name:"persistence: every kept snapshot equals the reference (both plans)"
    ~count:(Helpers.qcheck_count 25) mutations_arb check_snapshots

(* One domain applies the sequence while this one reads without [?snap]:
   each read must equal the reference over the population at some epoch
   between the epochs read just before and just after it. *)
let check_concurrent_reads pairs =
  let muts = mutations pairs in
  let pops = populations muts in
  let w = Lazy.force wl in
  let qas = Array.of_list (Lazy.force analyses) in
  List.iter
    (fun backjoins ->
      let reg = R.create ~backjoins w.H.schema in
      let finished = Atomic.make false in
      let mutator =
        Domain.spawn (fun () ->
            List.iter (apply reg) muts;
            Atomic.set finished true)
      in
      let reads = ref [] and i = ref 0 in
      while (not (Atomic.get finished)) || !i < Array.length qas do
        let qi = !i mod Array.length qas in
        let before = R.epoch reg in
        let got =
          List.sort compare (List.map view_name (R.candidates reg qas.(qi)))
        in
        reads := (before, R.epoch reg, qi, got) :: !reads;
        incr i
      done;
      Domain.join mutator;
      let reference = reference_at ~backjoins pops in
      List.iter
        (fun (before, after, qi, got) ->
          let rec explained e =
            e <= after && (reference e qi = got || explained (e + 1))
          in
          if not (explained before) then
            QCheck.Test.fail_reportf
              "%s: query %d read {%s} between epochs %d and %d, which no \
               population in that range explains"
              (plan_name backjoins) qi (String.concat "," got) before after)
        !reads)
    [ false; true ];
  true

let concurrent_prop =
  QCheck.Test.make
    ~name:"persistence: reads during mutation from another domain"
    ~count:(Helpers.qcheck_count 25) mutations_arb check_concurrent_reads

(* ---------------------------------------------------------------- *)
(* The revalidation screen against the filter tree                   *)
(* ---------------------------------------------------------------- *)

(* The search keys of every rule invocation the optimizer makes for the
   workload's queries. The blocks depend on the query alone, so an empty
   registry records them all. *)
let blocks =
  lazy
    (let w = Lazy.force wl in
     let reg = R.create w.H.schema in
     let keys = ref [] in
     List.iter
       (fun q ->
         ignore
           (Mv_opt.Optimizer.optimize
              ~record:(fun k _ -> keys := k :: !keys)
              reg w.H.stats q))
       w.H.queries;
     List.rev !keys)

(* Apply [m]; when it published a change, every block the screen clears
   for it must search to the same views in the same order after it as
   before. Counts the cleared and the flagged (block, change) pairs. *)
let screen_step ~backjoins reg (cleared, flagged) m =
  let before = R.snapshot reg in
  apply reg m;
  let after = R.snapshot reg in
  if after == before then (cleared, flagged)
  else
    let ch = List.hd after.R.snap_log in
    List.fold_left
      (fun (cleared, flagged) keys ->
        if not (R.unchanged_by reg ch keys) then (cleared, flagged + 1)
        else
          let was = R.search ~snap:before reg keys in
          let now = R.search ~snap:after reg keys in
          if not (List.equal ( == ) was now) then
            QCheck.Test.fail_reportf
              "%s: %s %s at %s cleared, but the candidates went from {%s} \
               to {%s}"
              (plan_name backjoins)
              (show_op m) (view_name ch.R.ch_view)
              (FT.stage_name ch.R.ch_stage)
              (String.concat "," (List.map view_name was))
              (String.concat "," (List.map view_name now));
          (cleared + 1, flagged))
      (cleared, flagged) (Lazy.force blocks)

(* Both plans: the (cleared, flagged) tallies of [muts] from an empty
   registry. *)
let screen_tallies muts =
  let w = Lazy.force wl in
  List.map
    (fun backjoins ->
      let reg = R.create ~backjoins w.H.schema in
      List.fold_left (screen_step ~backjoins reg) (0, 0) muts)
    [ false; true ]

(* From a registry holding every view: on a small tree a change seldom
   reshapes a level that other hits pass through. *)
let screen_prop =
  QCheck.Test.make
    ~name:"screen: a cleared block searches to the same list (both plans)"
    ~count:(Helpers.qcheck_count 25) mutations_arb (fun pairs ->
      ignore
        (screen_tallies (List.init nviews (fun i -> Add i) @ mutations pairs));
      true)

(* Every view added, then each dropped and re-added in turn: the screen
   must clear some (block, change) pairs and flag others under both
   plans, or the property above proves nothing. *)
let test_screen_outcomes () =
  let all = List.init nviews (fun i -> Add i) in
  let churn = List.concat (List.init nviews (fun i -> [ Drop i; Add i ])) in
  List.iter2
    (fun backjoins (cleared, flagged) ->
      let what = plan_name backjoins in
      Alcotest.(check bool) (what ^ ": some pairs cleared") true (cleared > 0);
      Alcotest.(check bool) (what ^ ": some pairs flagged") true (flagged > 0))
    [ false; true ]
    (screen_tallies (all @ churn))

(* A churned aggregation view that the SUM-argument check prunes only
   joins or leaves a bucket, and the check drops it from the result, so
   the screen clears it as it clears one the strong range check prunes.
   The view carrying the query's SUM reaches the result and is flagged. *)
let test_screen_sum_arguments () =
  let view name sum =
    Helpers.view_of_sql
      (Printf.sprintf
         "create view %s with schemabinding as select o_custkey, \
          count_big(*) as cnt, sum(%s) as s from dbo.lineitem, dbo.orders \
          where l_orderkey = o_orderkey group by o_custkey"
         name sum)
  in
  let has = view "has_sum" "l_quantity"
  and lacks = view "lacks_sum" "l_extendedprice" in
  let keys =
    FT.query_info
      (A.analyze Helpers.schema
         (Helpers.parse_q
            "select o_custkey, sum(l_quantity) as q from lineitem, orders \
             where l_orderkey = o_orderkey group by o_custkey"))
  in
  let reg = R.create Helpers.schema in
  R.add_prebuilt reg has;
  let churn f =
    let before = R.snapshot reg in
    f ();
    let after = R.snapshot reg in
    let ch = List.hd after.R.snap_log in
    ( R.unchanged_by reg ch keys,
      List.equal ( == ) (R.search ~snap:before reg keys)
        (R.search ~snap:after reg keys) )
  in
  let tree = (R.snapshot reg).R.snap_tree in
  Alcotest.(check bool)
    "the SUM-argument check prunes the view" true
    (FT.fate tree keys lacks = FT.Pruned FT.Stage_sum_args);
  let cleared, same = churn (fun () -> R.add_prebuilt reg lacks) in
  Alcotest.(check bool) "its add is cleared" true cleared;
  Alcotest.(check bool) "its add leaves the candidates" true same;
  let cleared, same = churn (fun () -> R.remove_view reg "lacks_sum") in
  Alcotest.(check bool) "its drop is cleared" true cleared;
  Alcotest.(check bool) "its drop leaves the candidates" true same;
  let cleared, _ = churn (fun () -> R.remove_view reg "has_sum") in
  Alcotest.(check bool) "the drop of the view with the SUM is flagged" false
    cleared

let suite =
  [
    ( "prop_dynamic",
      [
        Helpers.qtest model_prop;
        Helpers.qtest snapshots_prop;
        Helpers.qtest concurrent_prop;
        Helpers.qtest screen_prop;
        Alcotest.test_case "screen: cleared and flagged pairs both occur"
          `Quick test_screen_outcomes;
        Alcotest.test_case "screen: a view the SUM check prunes is cleared"
          `Quick test_screen_sum_arguments;
        Alcotest.test_case "epoch protocol" `Quick test_epoch_protocol;
        Alcotest.test_case "duplicate add raises, no epoch bump" `Quick
          test_duplicate_add_raises;
        Alcotest.test_case "drop prunes lattice nodes to baseline" `Quick
          test_tree_prunes_to_baseline;
      ] );
  ]
