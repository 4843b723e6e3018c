(** Differential tests for the per-view health ledger (DESIGN.md §14):
    the ledger is pure derived state, so every count it carries must be
    reproducible from the primary evidence — the optimizer results it was
    recorded from.

    Three layers:
    - a single-domain exact differential: the same workload on two fresh
      registries yields byte-identical ledger dumps, per-view [chosen]
      equals a replay tally of [Plan.views_used] over the returned
      results, and the candidate/matched totals equal the [rule.*] obs
      counters recorded at the same call sites;
    - deterministic units for the engine-side attribution points:
      [Ivm.apply] maintenance events/wall time and [Registry.mark_stale]
      staleness flips (flips count transitions, not calls);
    - a multi-domain serving identity under add/drop churn: N domains
      submitting through {!Mv_experiments.Serve.front} while a mutator
      drops/re-adds a view must lose no updates — [queries_total] equals
      the number of submissions and per-view [chosen + cache_hits] equals
      the summed occurrences of the view across every returned plan
      (single-flight leaders record chosen, plan-hit/waiter paths cache
      hits).

    Suites are named with a [health_] prefix so the @runtest-quick alias
    can select them; MVIEW_HEALTH_QUICK=1 shrinks the domain grid and the
    per-domain submission counts to CI size. *)

module H = Mv_experiments.Harness
module S = Mv_experiments.Serve
module R = Mv_core.Registry
module Health = Mv_core.Health
module Opt = Mv_opt.Optimizer
module Plan = Mv_opt.Plan
module Ivm = Mv_engine.Ivm
module DB = Mv_engine.Database
module J = Mv_obs.Json
module Obs = Mv_obs.Registry
module V = Mv_base.Value

let quick = Sys.getenv_opt "MVIEW_HEALTH_QUICK" <> None
let domain_counts = if quick then [ 2 ] else [ 2; 4 ]
let wl = lazy (H.make_workload ~nviews:80 ~nqueries:10 ())

(* One deterministic optimization pass over the workload on a fresh
   registry: the ledger under test and the results that are its primary
   evidence. *)
let fresh_run () =
  let w = Lazy.force wl in
  let registry = R.create w.H.schema in
  List.iter (R.add_prebuilt registry) w.H.views;
  let results =
    List.map (fun q -> Opt.optimize registry w.H.stats q) w.H.queries
  in
  (w, registry, results)

let bump t v n =
  Hashtbl.replace t v (n + Option.value ~default:0 (Hashtbl.find_opt t v))

(* Per-view occurrence counts of [Plan.views_used] across results — what
   the ledger's chosen column must replay to. *)
let tally results =
  let t = Hashtbl.create 32 in
  List.iter
    (fun (r : Opt.result) ->
      List.iter (fun v -> bump t v 1) (Plan.views_used r.Opt.plan))
    results;
  t

(* ---------------------------------------------------------------- *)
(* Single-domain exact differential                                 *)
(* ---------------------------------------------------------------- *)

let test_replay_identical () =
  let _, r1, _ = fresh_run () in
  let _, r2, _ = fresh_run () in
  Alcotest.(check string)
    "same workload on fresh registries: byte-identical ledger dumps"
    (J.to_string (Health.to_json r1.R.health))
    (J.to_string (Health.to_json r2.R.health))

let test_chosen_equals_replay () =
  let w, registry, results = fresh_run () in
  let health = registry.R.health in
  let t = tally results in
  (* every credited view is explained by the plans, and vice versa *)
  Hashtbl.iter
    (fun v n ->
      match Health.find health v with
      | None -> Alcotest.failf "view %s used by a plan but has no account" v
      | Some row ->
          Alcotest.(check int)
            (Printf.sprintf "%s: chosen = plan occurrences" v)
            n row.Health.r_chosen)
    t;
  List.iter
    (fun (row : Health.row) ->
      if not (Hashtbl.mem t row.Health.r_view) then
        Alcotest.(check int)
          (Printf.sprintf "%s: absent from every plan, never chosen"
             row.Health.r_view)
          0 row.Health.r_chosen)
    (Health.rows health);
  Alcotest.(check int) "one observed query per optimize call"
    (List.length w.H.queries)
    (Health.queries_total health)

let test_totals_equal_rule_counters () =
  let _, registry, _ = fresh_run () in
  let rows = Health.rows registry.R.health in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  Alcotest.(check int) "ledger candidate total = rule.candidates counter"
    (Obs.counter_value registry.R.obs "rule.candidates")
    (total (fun r -> r.Health.r_candidate));
  Alcotest.(check int) "ledger matched total = rule.matched counter"
    (Obs.counter_value registry.R.obs "rule.matched")
    (total (fun r -> r.Health.r_matched))

let test_column_sanity () =
  let _, registry, _ = fresh_run () in
  List.iter
    (fun (row : Health.row) ->
      let v = row.Health.r_view in
      Alcotest.(check bool)
        (v ^ ": matched never exceeds candidate")
        true
        (row.Health.r_matched <= row.Health.r_candidate);
      Alcotest.(check bool)
        (v ^ ": chosen implies matched")
        true
        (row.Health.r_chosen = 0 || row.Health.r_matched > 0);
      Alcotest.(check bool) (v ^ ": benefit non-negative") true
        (row.Health.r_benefit >= 0.0);
      Alcotest.(check bool)
        (v ^ ": dead iff never matched")
        true
        (Health.dead row = (row.Health.r_matched = 0)))
    (Health.rows registry.R.health)

(* ---------------------------------------------------------------- *)
(* Engine-side attribution: maintenance events and staleness flips  *)
(* ---------------------------------------------------------------- *)

let tiny_schema =
  let open Mv_catalog in
  Schema.make
    ~tables:
      [
        Table_def.make ~name:"fact"
          ~columns:
            [
              Column.make "f_id" Mv_base.Dtype.Int;
              Column.make "f_val" Mv_base.Dtype.Int;
            ]
          ~primary_key:[ "f_id" ] ();
      ]
    ~foreign_keys:[]

let tiny_view () =
  let col = Mv_base.Col.make in
  let open Mv_relalg.Spjg in
  Mv_core.View.create tiny_schema ~name:"hv_fact"
    (make ~tables:[ "fact" ] ~where:[] ~group_by:None
       ~out:
         [
           scalar "f_id" (Mv_base.Expr.Col (col "fact" "f_id"));
           scalar "f_val" (Mv_base.Expr.Col (col "fact" "f_val"));
         ])

let test_maintenance_attribution () =
  let db = DB.create tiny_schema in
  DB.insert db "fact" [| V.Int 1; V.Int 10 |];
  let view = tiny_view () in
  ignore (Mv_engine.Exec.materialize db view);
  let registry = R.create tiny_schema in
  R.add_prebuilt registry view;
  let ivm = Ivm.create ~health:registry.R.health db in
  Ivm.attach ivm view;
  Ivm.apply ivm
    [ ("fact", { Ivm.ins = [ [| V.Int 2; V.Int 20 |] ]; del = [] }) ];
  (match Health.find registry.R.health "hv_fact" with
  | None -> Alcotest.fail "maintained view has no ledger account"
  | Some row ->
      Alcotest.(check int) "one maintenance event" 1 row.Health.r_maint_events;
      Alcotest.(check bool) "maintenance wall time accumulated" true
        (row.Health.r_maint_s >= 0.0));
  Ivm.apply ivm
    [ ("fact", { Ivm.ins = []; del = [ [| V.Int 1; V.Int 10 |] ] }) ];
  match Health.find registry.R.health "hv_fact" with
  | None -> Alcotest.fail "account vanished"
  | Some row ->
      Alcotest.(check int) "second batch, second event" 2
        row.Health.r_maint_events

let test_stale_flip_attribution () =
  let view = tiny_view () in
  let registry = R.create tiny_schema in
  R.add_prebuilt registry view;
  let flips row_check =
    match Health.find registry.R.health "hv_fact" with
    | None -> Alcotest.fail "registered view has no ledger account"
    | Some row -> row_check row
  in
  let flipped = R.mark_stale registry ~tables:[ "fact" ] in
  Alcotest.(check int) "first write flips the view" 1 flipped;
  flips (fun row ->
      Alcotest.(check int) "one staleness flip recorded" 1
        row.Health.r_stale_flips);
  let again = R.mark_stale registry ~tables:[ "fact" ] in
  Alcotest.(check int) "already-stale view does not re-flip" 0 again;
  flips (fun row ->
      Alcotest.(check int) "flip count unchanged: transitions, not calls" 1
        row.Health.r_stale_flips)

(* ---------------------------------------------------------------- *)
(* Multi-domain serving identity under churn                        *)
(* ---------------------------------------------------------------- *)

(* N domains submit through one front while a mutator drops/re-adds the
   tail view. Submissions route through every serving path — flight
   leaders (optimizer records chosen), waiters and plan-layer hits
   (record_served records cache hits) — so the per-view identity
   [chosen + cache_hits = plan occurrences] and the per-submission
   identity [queries_total = submissions] only hold if no update is
   lost and every path records exactly once. *)
let test_serve_no_lost_updates () =
  List.iter
    (fun domains ->
      let w = Lazy.force wl in
      let registry = R.create w.H.schema in
      List.iter (R.add_prebuilt registry) w.H.views;
      Mv_relalg.Intern.freeze ();
      let front = S.front registry w.H.stats in
      let queries = Array.of_list w.H.queries in
      let nq = Array.length queries in
      let per = if quick then 200 else 600 in
      let stop = Atomic.make false in
      let churned = List.nth w.H.views (List.length w.H.views - 1) in
      let mutator =
        Domain.spawn (fun () ->
            let i = ref 0 in
            while not (Atomic.get stop) do
              (if !i land 1 = 0 then
                 R.remove_view registry churned.Mv_core.View.name
               else R.add_prebuilt registry churned);
              incr i;
              for _ = 1 to 500 do
                Domain.cpu_relax ()
              done
            done;
            (* leave the churned view registered for any later reader *)
            if !i land 1 = 1 then R.add_prebuilt registry churned)
      in
      let worker d =
        Domain.spawn (fun () ->
            let t = Hashtbl.create 32 in
            for k = 0 to per - 1 do
              let q = queries.((d + k) mod nq) in
              let _, r = S.submit front q in
              List.iter (fun v -> bump t v 1) (Plan.views_used r.Opt.plan)
            done;
            t)
      in
      let tallies = List.map Domain.join (List.init domains worker) in
      Atomic.set stop true;
      Domain.join mutator;
      let health = registry.R.health in
      Alcotest.(check int)
        (Printf.sprintf "%d domains: every submission logged exactly once"
           domains)
        (domains * per)
        (Health.queries_total health);
      let merged = Hashtbl.create 64 in
      List.iter (fun t -> Hashtbl.iter (bump merged) t) tallies;
      Hashtbl.iter
        (fun v n ->
          match Health.find health v with
          | None ->
              Alcotest.failf "%d domains: view %s served but unaccounted"
                domains v
          | Some row ->
              Alcotest.(check int)
                (Printf.sprintf
                   "%d domains: %s chosen + cache hits = plan occurrences"
                   domains v)
                n
                (row.Health.r_chosen + row.Health.r_cache_hits))
        merged;
      List.iter
        (fun (row : Health.row) ->
          if not (Hashtbl.mem merged row.Health.r_view) then
            Alcotest.(check int)
              (Printf.sprintf "%d domains: %s never served, never credited"
                 domains row.Health.r_view)
              0
              (row.Health.r_chosen + row.Health.r_cache_hits))
        (Health.rows health))
    domain_counts

let suite =
  [
    ( "health_differential",
      [
        Alcotest.test_case "replay identical on fresh registries" `Quick
          test_replay_identical;
        Alcotest.test_case "chosen equals plan-replay tally" `Quick
          test_chosen_equals_replay;
        Alcotest.test_case "ledger totals equal rule counters" `Quick
          test_totals_equal_rule_counters;
        Alcotest.test_case "column invariants" `Quick test_column_sanity;
      ] );
    ( "health_engine",
      [
        Alcotest.test_case "maintenance events and wall time" `Quick
          test_maintenance_attribution;
        Alcotest.test_case "staleness flips count transitions" `Quick
          test_stale_flip_attribution;
      ] );
    ( "health_serve",
      [
        Alcotest.test_case "no lost updates under churn" `Slow
          test_serve_no_lost_updates;
      ] );
  ]
