(** The observability layer itself: instrument arithmetic, scoped-registry
    isolation, JSON snapshot round-trips and the timeline ring. *)

module Obs = Mv_obs.Registry
module I = Mv_obs.Instrument
module J = Mv_obs.Json

let test_counter () =
  let c = I.counter () in
  Alcotest.(check int) "fresh" 0 (I.value c);
  I.incr c;
  I.incr c;
  I.add c 40;
  Alcotest.(check int) "incr + add" 42 (I.value c);
  I.reset_counter c;
  Alcotest.(check int) "reset" 0 (I.value c)

let test_histogram () =
  let h = I.histogram () in
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (I.mean h);
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (I.quantile h 0.5);
  List.iter (fun v -> I.observe h v) [ 1.0; 2.0; 3.0; 4.0; 10.0 ];
  Alcotest.(check int) "count" 5 (I.count h);
  Alcotest.(check (float 1e-9)) "sum" 20.0 (I.sum h);
  Alcotest.(check (float 1e-9)) "mean" 4.0 (I.mean h);
  Alcotest.(check (float 1e-9)) "min" 1.0 (I.min_value h);
  Alcotest.(check (float 1e-9)) "max" 10.0 (I.max_value h);
  (* power-of-two buckets: the p50 bound must cover the true median (2.0 <=
     bound <= max), and quantiles must be monotone in q *)
  let p50 = I.quantile h 0.5 and p95 = I.quantile h 0.95 in
  Alcotest.(check bool) "p50 covers median" true (p50 >= 2.0 && p50 <= 10.0);
  Alcotest.(check bool) "quantiles monotone" true (p95 >= p50);
  I.reset_histogram h;
  Alcotest.(check int) "reset count" 0 (I.count h)

let test_scoped_isolation () =
  let a = Obs.create () and b = Obs.create () in
  I.add (Obs.counter a "x") 5;
  I.add (Obs.counter b "x") 11;
  Alcotest.(check int) "a.x" 5 (Obs.counter_value a "x");
  Alcotest.(check int) "b.x" 11 (Obs.counter_value b "x");
  Alcotest.(check bool) "same name, distinct instruments" true
    (Obs.counter a "x" != Obs.counter b "x");
  Obs.reset a;
  Alcotest.(check int) "reset a only" 0 (Obs.counter_value a "x");
  Alcotest.(check int) "b untouched" 11 (Obs.counter_value b "x");
  (* get-or-create returns the same instrument for the same name *)
  Alcotest.(check bool) "idempotent lookup" true
    (Obs.counter a "x" == Obs.counter a "x")

let test_kind_mismatch () =
  let r = Obs.create () in
  ignore (Obs.counter r "m");
  Alcotest.check_raises "histogram over counter"
    (Obs.Kind_mismatch "m already registered as a counter") (fun () ->
      ignore (Obs.histogram r "m"))

let test_json_roundtrip () =
  let r = Obs.create () in
  I.add (Obs.counter r "rule.invocations") 17;
  let h = Obs.histogram r "latency" in
  List.iter (fun v -> I.observe h v) [ 0.001; 0.004; 2.5 ];
  let snap = Obs.to_json r in
  let reparsed = J.of_string (J.to_string snap) in
  Alcotest.(check bool) "pretty round-trip" true (J.equal snap reparsed);
  let reparsed_min = J.of_string (J.to_string ~minify:true snap) in
  Alcotest.(check bool) "minified round-trip" true (J.equal snap reparsed_min);
  (* spot-check shape *)
  Alcotest.(check bool) "counter present" true
    (J.path [ "counters"; "rule.invocations" ] snap = Some (J.Int 17));
  Alcotest.(check bool) "two sections, no timers" true
    (J.path [ "timers" ] snap = None);
  Alcotest.(check bool) "histogram count" true
    (J.path [ "histograms"; "latency"; "count" ] snap = Some (J.Int 3))

let test_json_parser () =
  let t = J.of_string {| {"a": [1, -2.5, true, null, "x\n\"yA"], "b": {}} |} in
  Alcotest.(check bool) "parsed" true
    (t
    = J.Obj
        [
          ( "a",
            J.List
              [ J.Int 1; J.Float (-2.5); J.Bool true; J.Null;
                J.String "x\n\"yA" ] );
          ("b", J.Obj []);
        ]);
  Alcotest.check_raises "trailing garbage"
    (J.Parse_error "trailing garbage at offset 5") (fun () ->
      ignore (J.of_string "null x"));
  (match J.of_string "1e3" with
  | J.Float f -> Alcotest.(check (float 1e-9)) "exponent" 1000.0 f
  | _ -> Alcotest.fail "1e3 should parse as a float");
  (* floats that look integral still round-trip as floats *)
  match J.of_string (J.to_string (J.Float 2.0)) with
  | J.Float f -> Alcotest.(check (float 0.0)) "2.0 stays float" 2.0 f
  | _ -> Alcotest.fail "Float 2.0 must not reparse as Int"

let test_render () =
  let r = Obs.create () in
  I.add (Obs.counter r "a.count") 3;
  I.observe (Obs.histogram r "a.time") 1.0;
  ignore (Obs.histogram r "a.hist");
  let table = Obs.render r in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("render mentions " ^ needle) true
        (Helpers.contains ~needle table))
    [ "a.count"; "a.time"; "a.hist"; "count 1"; "empty" ]

(* ---- Instrument.merge: merging == interleaved observation ---- *)

(* Deterministic value table: indices map to floats spanning ~24 binades
   so bucket boundaries actually get exercised. *)
let merge_value i =
  ldexp (1.0 +. (float_of_int (i mod 7) /. 7.0)) ((i mod 25) - 12)

(* Round-robin interleaving — a genuinely different observation order
   than per-source concatenation. *)
let rec interleave lists =
  match List.filter (fun l -> l <> []) lists with
  | [] -> []
  | ls -> List.map List.hd ls @ interleave (List.map List.tl ls)

let merge_hist_prop =
  QCheck.Test.make
    ~count:(Helpers.qcheck_count 200)
    ~name:
      "obs: merge_histograms == interleaved observation (quantiles within \
       one bucket)"
    QCheck.(list_of_size Gen.(1 -- 4) (list_of_size Gen.(0 -- 40) (int_bound 400)))
    (fun raw ->
      let parts = List.map (List.map merge_value) raw in
      let sources =
        List.map
          (fun p ->
            let h = I.histogram () in
            List.iter (I.observe h) p;
            h)
          parts
      in
      let merged = I.merge_histograms sources in
      let union = I.histogram () in
      List.iter (I.observe union) (interleave parts);
      let total = List.length (List.concat parts) in
      if I.count merged <> total || I.count merged <> I.count union then
        QCheck.Test.fail_reportf "count: merged %d union %d expected %d"
          (I.count merged) (I.count union) total;
      let su = I.sum union and sm = I.sum merged in
      if Float.abs (sm -. su) > 1e-9 *. (Float.abs su +. 1.0) then
        QCheck.Test.fail_reportf "sum: merged %.17g union %.17g" sm su;
      if total > 0 then begin
        if I.min_value merged <> I.min_value union then
          QCheck.Test.fail_reportf "min: merged %g union %g"
            (I.min_value merged) (I.min_value union);
        if I.max_value merged <> I.max_value union then
          QCheck.Test.fail_reportf "max: merged %g union %g"
            (I.max_value merged) (I.max_value union)
      end;
      List.iter
        (fun q ->
          let qm = I.quantile merged q and qu = I.quantile union q in
          if abs (I.bucket_of qm - I.bucket_of qu) > 1 then
            QCheck.Test.fail_reportf
              "p%g: merged %g (bucket %d) vs union %g (bucket %d)"
              (100. *. q) qm (I.bucket_of qm) qu (I.bucket_of qu))
        [ 0.01; 0.5; 0.9; 0.99 ];
      true)

(* The bucketing [Float.frexp] gave before [bucket_of] read the bits. *)
let frexp_bucket v =
  if v <= 0.0 then 0
  else
    let _, e = Float.frexp v in
    max 0 (min (I.buckets - 1) (e + 64))

(* Edge cases, each checked on every run; the last is a NaN with its
   sign bit set, which [v <= 0.0] does not catch. *)
let bucket_edges =
  [
    0.0; -0.0; Float.infinity; Float.neg_infinity; Float.nan;
    Float.min_float; Float.max_float; Float.epsilon; 1.0; 0.5;
    ldexp 1.0 (-64); ldexp 1.0 (-65); ldexp 1.0 63; ldexp 1.0 64;
    4.9e-324; 2.2250738585072009e-308;
    Int64.float_of_bits 0xFFF8000000000001L;
  ]

let bucket_of_prop =
  QCheck.Test.make
    ~count:(Helpers.qcheck_count 2000)
    ~name:"obs: bucket_of equals the frexp bucketing"
    QCheck.(
      make ~print:(Printf.sprintf "%h")
        Gen.(
          oneof
            [ map Int64.float_of_bits ui64; float; oneofl bucket_edges ]))
    (fun v -> I.bucket_of v = frexp_bucket v)

let test_bucket_edges () =
  List.iter
    (fun v ->
      Alcotest.(check int) (Printf.sprintf "%h" v) (frexp_bucket v)
        (I.bucket_of v))
    bucket_edges

let test_merge_empty_histograms () =
  let m = I.merge_histograms [ I.histogram (); I.histogram () ] in
  Alcotest.(check int) "count" 0 (I.count m);
  Alcotest.(check (float 0.0)) "quantile" 0.0 (I.quantile m 0.5)

(* ---- JSON non-finite policy and empty/reset registry surfaces ---- *)

let test_json_nonfinite () =
  List.iter
    (fun f ->
      match J.of_string (J.to_string (J.Float f)) with
      | J.Null -> ()
      | other ->
          Alcotest.failf "%.17g should serialize as null, got %s" f
            (J.to_string ~minify:true other))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* nested occurrences follow the same policy; finite floats survive *)
  let doc =
    J.Obj
      [
        ("a", J.Float Float.nan);
        ("b", J.List [ J.Float Float.infinity; J.Int 1 ]);
        ("c", J.Float 2.5);
        ("d", J.Float Float.neg_infinity);
      ]
  in
  let expected =
    J.Obj
      [
        ("a", J.Null);
        ("b", J.List [ J.Null; J.Int 1 ]);
        ("c", J.Float 2.5);
        ("d", J.Null);
      ]
  in
  Alcotest.(check bool) "nested nan/inf -> null" true
    (J.equal expected (J.of_string (J.to_string doc)));
  Alcotest.(check bool) "minified too" true
    (J.equal expected (J.of_string (J.to_string ~minify:true doc)))

let test_empty_histogram_surfaces () =
  let r = Obs.create () in
  ignore (Obs.histogram r "h.empty");
  (* min/max of an empty histogram are +/-inf internally; the JSON dump
     must apply the null policy, and the whole snapshot must round-trip *)
  let j = Obs.to_json r in
  Alcotest.(check bool) "empty min is null" true
    (J.path [ "histograms"; "h.empty"; "min" ] j = Some J.Null);
  Alcotest.(check bool) "empty max is null" true
    (J.path [ "histograms"; "h.empty"; "max" ] j = Some J.Null);
  Alcotest.(check bool) "empty count" true
    (J.path [ "histograms"; "h.empty"; "count" ] j = Some (J.Int 0));
  Alcotest.(check bool) "round-trips" true
    (J.equal j (J.of_string (J.to_string j)));
  Alcotest.(check bool) "render mentions the empty histogram" true
    (Helpers.contains ~needle:"h.empty" (Obs.render r))

let test_reset_registry_surfaces () =
  let r = Obs.create () in
  I.add (Obs.counter r "c") 7;
  let h = Obs.histogram r "h" in
  List.iter (I.observe h) [ 0.5; 4.0 ];
  I.observe (Obs.histogram r "t") 1.0;
  Obs.reset r;
  let j = Obs.to_json r in
  Alcotest.(check bool) "counter back to 0" true
    (J.path [ "counters"; "c" ] j = Some (J.Int 0));
  Alcotest.(check bool) "histogram count back to 0" true
    (J.path [ "histograms"; "h"; "count" ] j = Some (J.Int 0));
  Alcotest.(check bool) "histogram min null again" true
    (J.path [ "histograms"; "h"; "min" ] j = Some J.Null);
  Alcotest.(check bool) "round-trips" true
    (J.equal j (J.of_string (J.to_string j)));
  (* instruments survive the reset by identity — render still lists them *)
  let table = Obs.render r in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("reset render mentions " ^ needle) true
        (Helpers.contains ~needle table))
    [ "c"; "h"; "t" ]

(* ---- Timeline: the window ring, driven by manual ticks ---- *)

module Tl = Mv_obs.Timeline

let deltas name samples = List.map (fun s -> List.assoc name s.Tl.counters) samples

(* Tick i moves the counter by i, so each window names its tick. *)
let test_timeline_ring () =
  let r = Obs.create () in
  let c = Obs.counter r "c" in
  let tl = Tl.create r in
  let cap = Tl.capacity tl and extra = 7 in
  for i = 1 to cap + extra do
    I.add c i;
    Tl.tick tl
  done;
  let ss = Tl.samples tl in
  Alcotest.(check int) "total counts every tick" (cap + extra) (Tl.total tl);
  Alcotest.(check (list int)) "newest capacity windows, oldest first"
    (List.init cap (fun j -> extra + 1 + j))
    (deltas "c" ss);
  Alcotest.(check bool) "timestamps ascend" true
    (List.for_all2 (fun a b -> a.Tl.ts <= b.Tl.ts)
       (List.filteri (fun i _ -> i < cap - 1) ss)
       (List.tl ss))

(* Before the ring wraps, the windows partition the run: counter deltas
   and histogram window counts add up to the cumulative instruments. *)
let test_timeline_windows_sum () =
  let r = Obs.create () in
  let c = Obs.counter r "c" and h = Obs.histogram r "h" in
  let tl = Tl.create r in
  List.iter
    (fun (n, obs) ->
      I.add c n;
      List.iter (I.observe h) obs;
      Tl.tick tl)
    [ (3, [ 0.5; 2.0 ]); (0, []); (11, [ 1e-3 ]); (4, [ 8.0; 8.0; 0.25 ]) ];
  let ss = Tl.samples tl in
  Alcotest.(check int) "no window overwritten" (Tl.total tl) (List.length ss);
  Alcotest.(check int) "counter deltas sum to the counter" (I.value c)
    (List.fold_left ( + ) 0 (deltas "c" ss));
  Alcotest.(check int) "window counts sum to the histogram's" (I.count h)
    (List.fold_left
       (fun n s -> n + (List.assoc "h" s.Tl.histograms).Tl.w_count)
       0 ss)

(* A sampler sleeping through its whole run still ends with the tail
   window: [stop] ticks once after joining the domain. *)
let test_timeline_stop_ticks () =
  let r = Obs.create () in
  let c = Obs.counter r "c" in
  let tl = Tl.create r in
  let sampler = Tl.start ~period:0.5 tl in
  I.add c 5;
  let before = Tl.total tl in
  Tl.stop sampler;
  Alcotest.(check int) "one final tick" (before + 1) (Tl.total tl);
  Alcotest.(check int) "tail window captured" 5
    (List.fold_left ( + ) 0 (deltas "c" (Tl.samples tl)))

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "counter arithmetic" `Quick test_counter;
        Alcotest.test_case "histogram arithmetic" `Quick test_histogram;
        Alcotest.test_case "scoped registries are isolated" `Quick
          test_scoped_isolation;
        Alcotest.test_case "kind mismatch rejected" `Quick test_kind_mismatch;
        Alcotest.test_case "JSON snapshot round-trips" `Quick
          test_json_roundtrip;
        Alcotest.test_case "JSON parser" `Quick test_json_parser;
        Alcotest.test_case "table rendering" `Quick test_render;
        Helpers.qtest bucket_of_prop;
        Alcotest.test_case "bucket_of on edge cases" `Quick test_bucket_edges;
      ] );
    ( "obs_merge",
      [
        Helpers.qtest merge_hist_prop;
        Alcotest.test_case "merging empty histograms" `Quick
          test_merge_empty_histograms;
      ] );
    ( "obs_json",
      [
        Alcotest.test_case "non-finite floats serialize as null" `Quick
          test_json_nonfinite;
        Alcotest.test_case "empty-histogram JSON and render surfaces" `Quick
          test_empty_histogram_surfaces;
        Alcotest.test_case "freshly-reset registry surfaces" `Quick
          test_reset_registry_surfaces;
      ] );
    ( "obs_timeline",
      [
        Alcotest.test_case "ring keeps the newest windows" `Quick
          test_timeline_ring;
        Alcotest.test_case "windows sum to the instruments" `Quick
          test_timeline_windows_sum;
        Alcotest.test_case "stop takes one final tick" `Quick
          test_timeline_stop_ticks;
      ] );
  ]
