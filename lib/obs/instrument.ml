let now_wall () = Unix.gettimeofday ()

let now_cpu () = Sys.time ()

(* All three instrument kinds are safe to update and read from any OCaml
   domain. Counters are single atomic ints ([Atomic.fetch_and_add] — no
   lock, no lost updates, never transiently negative). Timers and
   histograms accumulate several related fields, so they carry a tiny
   mutex: an update is one uncontended lock/unlock — nanoseconds next to
   the work being measured — and a snapshot taken mid-update sees a
   consistent record, not a half-applied one. *)

(* ---- counters ---- *)

type counter = int Atomic.t

let counter () = Atomic.make 0

let incr c = ignore (Atomic.fetch_and_add c 1)

let add c k = ignore (Atomic.fetch_and_add c k)

let value c = Atomic.get c

let reset_counter c = Atomic.set c 0

(* ---- timers ---- *)

type timer = {
  t_lock : Mutex.t;
  mutable t_wall : float;
  mutable t_cpu : float;
  mutable t_count : int;
}

let timer () =
  { t_lock = Mutex.create (); t_wall = 0.0; t_cpu = 0.0; t_count = 0 }

let record t ~wall ~cpu =
  Mutex.protect t.t_lock (fun () ->
      t.t_wall <- t.t_wall +. wall;
      t.t_cpu <- t.t_cpu +. cpu;
      t.t_count <- t.t_count + 1)

let wall t = Mutex.protect t.t_lock (fun () -> t.t_wall)

let cpu t = Mutex.protect t.t_lock (fun () -> t.t_cpu)

let intervals t = Mutex.protect t.t_lock (fun () -> t.t_count)

let reset_timer t =
  Mutex.protect t.t_lock (fun () ->
      t.t_wall <- 0.0;
      t.t_cpu <- 0.0;
      t.t_count <- 0)

(* ---- histograms ---- *)

(* Bucket [i] covers (2^(i-64-1), 2^(i-64)]: exponents from 2^-64 up to
   2^63 cover everything from sub-nanosecond timings to huge row counts. *)
let buckets = 128

let bucket_of v =
  if v <= 0.0 then 0
  else
    let _, e = Float.frexp v in
    (* v in (2^(e-1), 2^e] up to frexp rounding *)
    max 0 (min (buckets - 1) (e + 64))

let bucket_upper i = Float.ldexp 1.0 (i - 64)

let bucket_lower i = if i = 0 then 0.0 else Float.ldexp 1.0 (i - 65)

type histogram = {
  h_lock : Mutex.t;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
}

let histogram () =
  {
    h_lock = Mutex.create ();
    h_count = 0;
    h_sum = 0.0;
    h_min = Float.infinity;
    h_max = Float.neg_infinity;
    h_buckets = Array.make buckets 0;
  }

let observe h v =
  Mutex.protect h.h_lock (fun () ->
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v;
      let b = bucket_of v in
      h.h_buckets.(b) <- h.h_buckets.(b) + 1)

let count h = Mutex.protect h.h_lock (fun () -> h.h_count)

let sum h = Mutex.protect h.h_lock (fun () -> h.h_sum)

let mean h =
  Mutex.protect h.h_lock (fun () ->
      if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count)

let min_value h = Mutex.protect h.h_lock (fun () -> h.h_min)

let max_value h = Mutex.protect h.h_lock (fun () -> h.h_max)

(* The one quantile estimator, over a histogram's state or a snapshot's:
   find the bucket holding the q-quantile observation, then interpolate
   linearly within it from the rank's position among the bucket's
   observations, clamped to the exact min/max. *)
let quantile_of ~count ~min_v ~max_v bs q =
  if count = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (Float.of_int count *. q) in
      max 0 (min (count - 1) r)
    in
    let rec go i seen =
      if i >= buckets then max_v
      else
        let c = bs.(i) in
        let seen' = seen + c in
        if seen' > rank then begin
          let lower = bucket_lower i and upper = bucket_upper i in
          let frac = float_of_int (rank - seen + 1) /. float_of_int c in
          let v = lower +. ((upper -. lower) *. frac) in
          Float.max min_v (Float.min max_v v)
        end
        else go (i + 1) seen'
    in
    go 0 0
  end

let quantile h q =
  Mutex.protect h.h_lock (fun () ->
      quantile_of ~count:h.h_count ~min_v:h.h_min ~max_v:h.h_max h.h_buckets q)

(* ---- merge: fold per-domain instruments into one ---- *)

(* Each source is read under its own lock so a merge taken while other
   domains record sees each instrument consistently; the destination is
   fresh and local, so no lock is needed on the write side. *)

let merge_timers ts =
  let m = timer () in
  List.iter
    (fun t ->
      let w, c, n =
        Mutex.protect t.t_lock (fun () -> (t.t_wall, t.t_cpu, t.t_count))
      in
      m.t_wall <- m.t_wall +. w;
      m.t_cpu <- m.t_cpu +. c;
      m.t_count <- m.t_count + n)
    ts;
  m

let merge_histograms hs =
  let m = histogram () in
  List.iter
    (fun h ->
      Mutex.protect h.h_lock (fun () ->
          m.h_count <- m.h_count + h.h_count;
          m.h_sum <- m.h_sum +. h.h_sum;
          if h.h_min < m.h_min then m.h_min <- h.h_min;
          if h.h_max > m.h_max then m.h_max <- h.h_max;
          Array.iteri
            (fun i c -> m.h_buckets.(i) <- m.h_buckets.(i) + c)
            h.h_buckets))
    hs;
  m

(* ---- histogram snapshots: immutable copies for windowed reporting ---- *)

type hsnap = {
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_buckets : int array;
}

let hsnap_empty =
  {
    hs_count = 0;
    hs_sum = 0.0;
    hs_min = Float.infinity;
    hs_max = Float.neg_infinity;
    hs_buckets = Array.make buckets 0;
  }

let snapshot h =
  Mutex.protect h.h_lock (fun () ->
      {
        hs_count = h.h_count;
        hs_sum = h.h_sum;
        hs_min = h.h_min;
        hs_max = h.h_max;
        hs_buckets = Array.copy h.h_buckets;
      })

(* Window = later cumulative state minus an earlier one. The exact
   min/max of just the window is unrecoverable from cumulative state, so
   they are approximated by the bounds of the first/last bucket that saw
   traffic in the window — tight to within one power-of-two bucket, which
   matches the histogram's own resolution. *)
let hsnap_diff ~prev cur =
  let bs =
    Array.init buckets (fun i -> max 0 (cur.hs_buckets.(i) - prev.hs_buckets.(i)))
  in
  let lo = ref Float.infinity and hi = ref Float.neg_infinity in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        if !lo = Float.infinity then lo := bucket_lower i;
        hi := bucket_upper i
      end)
    bs;
  {
    hs_count = max 0 (cur.hs_count - prev.hs_count);
    hs_sum = Float.max 0.0 (cur.hs_sum -. prev.hs_sum);
    hs_min = !lo;
    hs_max = !hi;
    hs_buckets = bs;
  }

let hsnap_quantile s q =
  quantile_of ~count:s.hs_count ~min_v:s.hs_min ~max_v:s.hs_max s.hs_buckets q

let reset_histogram h =
  Mutex.protect h.h_lock (fun () ->
      h.h_count <- 0;
      h.h_sum <- 0.0;
      h.h_min <- Float.infinity;
      h.h_max <- Float.neg_infinity;
      Array.fill h.h_buckets 0 buckets 0)

(* ---- spans ---- *)

type span = { s_wall : float; s_cpu : float }

let enter () = { s_wall = now_wall (); s_cpu = now_cpu () }

let elapsed s = (now_wall () -. s.s_wall, now_cpu () -. s.s_cpu)

let exit_into t s =
  let wall, cpu = elapsed s in
  record t ~wall ~cpu

let time t f =
  let s = enter () in
  match f () with
  | v ->
      exit_into t s;
      v
  | exception e ->
      exit_into t s;
      raise e

let time_hist h f =
  let t0 = now_wall () in
  match f () with
  | v ->
      observe h (now_wall () -. t0);
      v
  | exception e ->
      observe h (now_wall () -. t0);
      raise e
