(** Differential and stress tests for the multicore harness: a parallel
    run (the query batch sharded over N OCaml domains against one shared
    registry) must be observationally equal to the sequential run — same
    candidate sets, same match/substitute counters, same per-level
    filter-tree flow — with only the timings allowed to differ. Plus
    concurrency properties for the pieces that make that possible: the
    freezable interner and the atomic observability counters.

    Suites are named with a [par_] prefix so the @runtest-quick alias can
    select them; MVIEW_PAR_QUICK=1 shrinks the differential grid to a
    2-domain smoke. *)

module H = Mv_experiments.Harness
module M = Mv_experiments.Measure
module Pool = Mv_experiments.Pool
module Symbol = Mv_util.Symbol
module Obs = Mv_obs

let quick = Sys.getenv_opt "MVIEW_PAR_QUICK" <> None

(* A private workload (not shared with test_experiments) sized so the full
   grid — 8 cells, each run sequentially and at 2 and 4 domains — stays
   fast even under the linear no-filter configurations. *)
let wl = lazy (H.make_workload ~nviews:120 ~nqueries:(if quick then 10 else 16) ())

(* ---------------------------------------------------------------- *)
(* Differential: parallel harness == sequential harness             *)
(* ---------------------------------------------------------------- *)

let check_equal_cells ~label (seq : M.t) (par : M.t) =
  List.iter
    (fun what ->
      Alcotest.(check int)
        (Printf.sprintf "%s: %s" label what)
        (M.int seq what) (M.int par what))
    [ "queries"; "invocations"; "candidates"; "substitutes"; "plans_using_views" ];
  let flow m =
    List.map
      (fun l ->
        Printf.sprintf "%s %d/%d" (M.string l "level") (M.int l "in")
          (M.int l "out"))
      (List.assoc "levels" m.M.subs)
  in
  Alcotest.(check (list string))
    (Printf.sprintf "%s: level flow" label)
    (flow seq) (flow par)

let grid () =
  if quick then [ (120, { H.alt = true; filter = true }) ]
  else
    List.concat_map
      (fun nviews -> List.map (fun c -> (nviews, c)) H.all_configs)
      [ 0; 120 ]

let domain_counts = if quick then [ 2 ] else [ 2; 4 ]

let test_differential () =
  let w = Lazy.force wl in
  List.iter
    (fun (nviews, config) ->
      let seq = H.run w ~nviews ~config in
      List.iter
        (fun domains ->
          let par = H.run ~domains w ~nviews ~config in
          Alcotest.(check int)
            (Printf.sprintf "domains field (%d)" domains)
            domains (M.int par "domains");
          check_equal_cells
            ~label:
              (Printf.sprintf "%d views, %s, %d domains" nviews
                 (H.config_name config) domains)
            seq par)
        domain_counts)
    (grid ())

(* Per-query candidate *sets* (not just totals): probing one shared
   registry + filter tree from several domains must yield, per query, the
   exact view list the sequential probe yields, in the same order. *)
let test_candidate_sets () =
  let w = Lazy.force wl in
  let registry =
    Mv_core.Registry.create ~use_filter:true ~backjoins:false w.H.schema
  in
  List.iter (Mv_core.Registry.add_prebuilt registry) w.H.views;
  Mv_relalg.Intern.freeze ();
  let queries =
    List.map (Mv_relalg.Analysis.analyze w.H.schema) w.H.queries
  in
  let names q =
    List.map
      (fun v -> v.Mv_core.View.name)
      (Mv_core.Registry.candidates registry q)
  in
  let seq = List.map names queries in
  List.iter
    (fun domains ->
      let par = Pool.map_list ~domains names queries in
      Alcotest.(check (list (list string)))
        (Printf.sprintf "candidate sets at %d domains" domains)
        seq par)
    domain_counts

(* ---------------------------------------------------------------- *)
(* Pool: the chunked scheduler itself                               *)
(* ---------------------------------------------------------------- *)

let test_chunk_bounds () =
  List.iter
    (fun (domains, n) ->
      let bounds = Pool.chunk_bounds ~domains n in
      (* contiguous cover of [0, n), sizes differing by at most one *)
      let rec check expected_lo sizes = function
        | [] ->
            Alcotest.(check int)
              (Printf.sprintf "cover hi (%d/%d)" domains n)
              n expected_lo;
            let mn = List.fold_left min max_int sizes
            and mx = List.fold_left max 0 sizes in
            Alcotest.(check bool)
              (Printf.sprintf "balanced (%d/%d)" domains n)
              true
              (mx - mn <= 1)
        | (lo, hi) :: rest ->
            Alcotest.(check int) "contiguous" expected_lo lo;
            Alcotest.(check bool) "nonempty" true (hi > lo);
            check hi ((hi - lo) :: sizes) rest
      in
      check 0 [] bounds)
    [ (1, 7); (2, 7); (4, 7); (4, 4); (4, 3); (3, 100); (8, 2) ]

let test_map_chunked_order () =
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "index order at %d domains" domains)
        (List.init 23 (fun i -> i * i))
        (Pool.map_chunked ~domains 23 (fun i -> i * i)))
    [ 1; 2; 4 ]

exception Boom of int

let test_map_chunked_exception () =
  (* a failing chunk re-raises in the caller, after every domain joined *)
  match Pool.map_chunked ~domains:4 16 (fun i -> if i = 9 then raise (Boom i) else i)
  with
  | _ -> Alcotest.fail "expected the chunk exception to propagate"
  | exception Boom 9 -> ()

(* ---------------------------------------------------------------- *)
(* Symbol: concurrent interning                                     *)
(* ---------------------------------------------------------------- *)

let rotate i xs =
  let n = List.length xs in
  if n = 0 then []
  else
    let k = i mod n in
    let arr = Array.of_list xs in
    List.init n (fun j -> arr.((j + k) mod n))

(* Four domains intern overlapping rotations of one string pool
   concurrently; the table must come out consistent: same string, same id,
   everywhere; no lost entries; ids dense 0..distinct-1; and the domain
   still accepts new strings after [freeze]. *)
let intern_prop =
  QCheck.Test.make
    ~name:"par: concurrent Symbol.intern from 4 domains is consistent"
    ~count:(Helpers.qcheck_count 50)
    QCheck.(small_list small_nat)
    (fun ints ->
      let pool = List.map (fun n -> "s" ^ string_of_int (n mod 50)) ints in
      let d = Symbol.create "par_intern_test" in
      let shards = List.init 4 (fun i -> rotate i pool) in
      let results =
        Pool.run_each
          (List.map
             (fun shard () ->
               List.map (fun s -> (s, Symbol.intern d s)) shard)
             shards)
      in
      let mapping = Hashtbl.create 16 in
      let consistent = ref true in
      List.iter
        (List.iter (fun (s, id) ->
             match Hashtbl.find_opt mapping s with
             | None -> Hashtbl.add mapping s id
             | Some id' -> if id <> id' then consistent := false))
        results;
      let distinct = Hashtbl.length mapping in
      let ids = Hashtbl.fold (fun _ id acc -> id :: acc) mapping [] in
      let round_trips =
        Hashtbl.fold
          (fun s id acc ->
            acc && Symbol.name d id = s && Symbol.find d s = Some id)
          mapping true
      in
      Symbol.freeze d;
      let fresh = Symbol.intern d "unseen-after-freeze" in
      !consistent
      && Symbol.size d = distinct + 1 (* the post-freeze intern *)
      && Symbol.frozen_size d = distinct
      && List.sort compare ids = List.init distinct Fun.id
      && round_trips && fresh = distinct
      && Symbol.name d fresh = "unseen-after-freeze")

(* ---------------------------------------------------------------- *)
(* Obs: shared counters / histograms under concurrent update        *)
(* ---------------------------------------------------------------- *)

(* A power of two, so every partial sum of samples is exact and the
   histogram's sum must equal its count times the sample: a lost or torn
   update shows in either. *)
let sample = Float.ldexp 1.0 (-20)

let counter_total_prop =
  QCheck.Test.make
    ~name:"par: 4 domains bumping one counter/histogram lose no updates"
    ~count:(Helpers.qcheck_count 10)
    QCheck.(int_range 500 3000)
    (fun bumps ->
      let reg = Obs.Registry.create () in
      let c = Obs.Registry.counter reg "par.shared"
      and h = Obs.Registry.histogram reg "par.hist" in
      ignore
        (Pool.run_each
           (List.init 4 (fun _ () ->
                for _ = 1 to bumps do
                  Obs.Instrument.incr c;
                  Obs.Instrument.observe h sample
                done)));
      Obs.Instrument.value c = 4 * bumps
      && Obs.Instrument.count h = 4 * bumps
      && Obs.Instrument.sum h = float_of_int (4 * bumps) *. sample)

(* walk a JSON snapshot: every numeric leaf of a counter/histogram
   registry fed positive samples must be non-negative, even when sampled
   mid-update *)
let rec check_nonneg path (j : Obs.Json.t) =
  match j with
  | Obs.Json.Int i ->
      if i < 0 then Alcotest.failf "negative counter in snapshot: %s = %d" path i
  | Obs.Json.Float f ->
      if f < 0.0 then
        Alcotest.failf "negative value in snapshot: %s = %f" path f
  | Obs.Json.Obj fields ->
      List.iter (fun (k, v) -> check_nonneg (path ^ "." ^ k) v) fields
  | Obs.Json.List xs ->
      List.iteri (fun i v -> check_nonneg (Printf.sprintf "%s.%d" path i) v) xs
  | Obs.Json.Null | Obs.Json.Bool _ | Obs.Json.String _ -> ()

let test_json_during_updates () =
  let bumps = if quick then 2_000 else 10_000 in
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg "par.shared"
  and h = Obs.Registry.histogram reg "par.hist" in
  let finished = Atomic.make 0 in
  let bumper () =
    for _ = 1 to bumps do
      Obs.Instrument.incr c;
      Obs.Instrument.observe h sample
    done;
    Atomic.incr finished;
    0
  in
  let emitter () =
    (* snapshot continuously while the bumpers run: must never raise and
       never observe a negative value. At least one snapshot is taken even
       if the bumpers beat the emitter to the finish line (single-core
       hosts schedule the spawned domains first). *)
    let snaps = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      check_nonneg "" (Obs.Registry.to_json reg);
      ignore (Obs.Registry.render reg);
      incr snaps;
      if Atomic.get finished >= 4 then continue_ := false
    done;
    !snaps
  in
  match Pool.run_each (emitter :: List.init 4 (fun _ -> bumper)) with
  | snaps :: _ ->
      Alcotest.(check bool) "emitter ran" true (snaps >= 1);
      Alcotest.(check int) "exact counter total" (4 * bumps)
        (Obs.Instrument.value c);
      Alcotest.(check int) "exact histogram count" (4 * bumps)
        (Obs.Instrument.count h);
      Alcotest.(check (float 0.0)) "exact histogram sum"
        (float_of_int (4 * bumps) *. sample)
        (Obs.Instrument.sum h);
      check_nonneg "" (Obs.Registry.to_json reg)
  | [] -> Alcotest.fail "run_each returned nothing"

(* ---------------------------------------------------------------- *)
(* Lattice: concurrent searches of one shared tree                  *)
(* ---------------------------------------------------------------- *)

let test_concurrent_lattice_search () =
  let module Bitset = Mv_util.Bitset in
  let module Lattice = Mv_core.Lattice in
  (* all 6-bit sets with 1-3 elements: a dense DAG with many diamonds *)
  let sets =
    List.init 64 (fun n ->
        let rec bits i acc =
          if i >= 6 then acc
          else bits (i + 1) (if n land (1 lsl i) <> 0 then Bitset.add acc i else acc)
        in
        bits 0 Bitset.empty)
    |> List.filter (fun s ->
           let c = List.length (Bitset.elements s) in
           c >= 1 && c <= 3)
  in
  let t =
    List.fold_left
      (fun t s -> Lattice.update t s (fun _ -> Some s))
      Lattice.empty sets
  in
  let probes = List.init 64 (fun n -> n) in
  let results_of probe =
    let key =
      let rec bits i acc =
        if i >= 6 then acc
        else bits (i + 1) (if probe land (1 lsl i) <> 0 then Bitset.add acc i else acc)
      in
      bits 0 Bitset.empty
    in
    List.sort compare
      (List.map Bitset.elements
         (Lattice.search t ~dir:`Up ~pred:(fun k -> Bitset.subset k key)))
  in
  let seq = List.map results_of probes in
  List.iter
    (fun domains ->
      let par = Pool.map_list ~domains results_of probes in
      Alcotest.(check bool)
        (Printf.sprintf "subset searches agree at %d domains" domains)
        true (seq = par))
    [ 2; 4 ]

let suite =
  [
    ( "par_differential",
      [
        Alcotest.test_case "parallel harness == sequential harness" `Quick
          test_differential;
        Alcotest.test_case "per-query candidate sets identical" `Quick
          test_candidate_sets;
        Alcotest.test_case "concurrent lattice searches agree" `Quick
          test_concurrent_lattice_search;
      ] );
    ( "par_pool",
      [
        Alcotest.test_case "chunk bounds partition the range" `Quick
          test_chunk_bounds;
        Alcotest.test_case "map_chunked preserves index order" `Quick
          test_map_chunked_order;
        Alcotest.test_case "chunk exceptions propagate after join" `Quick
          test_map_chunked_exception;
      ] );
    ( "par_stress",
      [
        Helpers.qtest intern_prop;
        Helpers.qtest counter_total_prop;
        Alcotest.test_case "JSON snapshots during concurrent updates" `Quick
          test_json_during_updates;
      ] );
  ]
