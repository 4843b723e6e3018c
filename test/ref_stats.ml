(** The reference column-statistics builder: the linear one-pass builder
    [Mv_catalog.Stats] used before its histogram cut moved to binary
    search, kept as the oracle for [Stats.build_column], the one builder
    (view statistics included: [Ivm] rebuilds them with it). It walks
    every run of equal values and counts them as it goes, so it shares no
    search with the builder under test, and it shares no code
    with [lib/catalog/stats.ml] beyond [Mv_base.Value]: only the result
    record's type. *)

open Mv_base
module Stats = Mv_catalog.Stats

let make_col ?hist ?(mcvs = []) ~min_v ~max_v ~ndv () =
  { Stats.min_v; max_v; ndv; hist; mcvs }

(* [Value.order], with a numerically equal Int before a Float. *)
let sort_order a b =
  match Value.order a b with
  | 0 -> (
      match (a, b) with
      | Value.Int _, Value.Float _ -> -1
      | Value.Float _, Value.Int _ -> 1
      | _ -> 0)
  | c -> c

let of_sorted ?(buckets = 16) ?(mcv_limit = 32) (arr : Value.t array) n :
    Stats.col_stats =
  if n = 0 then make_col ~min_v:Value.Null ~max_v:Value.Null ~ndv:0 ()
  else begin
    (* Equi-depth cut over ascending (value, multiplicity) runs: a bucket
       closes once it holds [depth] rows, and at the last run. *)
    let bounds = ref [] and counts = ref [] and acc = ref 0 in
    let cut depth v k ~last =
      acc := !acc + k;
      if !acc >= depth || last then begin
        bounds := v :: !bounds;
        counts := !acc :: !counts;
        acc := 0
      end
    in
    (* One pass over the runs: count them, keep the first few (all of
       them on a low-NDV column), and cut as if there were at least
       [buckets] of them. *)
    let keep = max mcv_limit buckets in
    let ndv = ref 0 and runs = ref [] and i = ref 0 in
    while !i < n do
      let v = arr.(!i) in
      let j = ref (!i + 1) in
      while !j < n && Value.order arr.(!j) v = 0 do
        incr j
      done;
      incr ndv;
      if !ndv <= keep then runs := (v, !j - !i) :: !runs;
      cut ((n + buckets - 1) / buckets) v (!j - !i) ~last:(!j = n);
      i := !j
    done;
    let ndv = !ndv in
    let runs = List.rev !runs in
    let mcvs =
      if ndv <= mcv_limit then
        (* Exhaustive: every distinct value with its exact multiplicity,
           heaviest first (ties broken by value order for determinism). *)
        List.stable_sort (fun (_, a) (_, b) -> compare b a) runs
      else []
    in
    let hist =
      if ndv <= 1 then None
      else begin
        if ndv < buckets then begin
          (* fewer runs than buckets: recut the kept runs at depth
             [ceil(n / ndv)], which makes at most [ndv] buckets *)
          bounds := [];
          counts := [];
          acc := 0;
          List.iteri
            (fun r (v, k) -> cut ((n + ndv - 1) / ndv) v k ~last:(r = ndv - 1))
            runs
        end;
        Some
          {
            Stats.h_lo = arr.(0);
            h_bounds = Array.of_list (List.rev !bounds);
            h_counts = Array.of_list (List.rev !counts);
          }
      end
    in
    make_col ?hist ~mcvs ~min_v:arr.(0) ~max_v:arr.(n - 1) ~ndv ()
  end

(* Over the non-null values, ascending by [sort_order]. *)
let build_column ?buckets ?mcv_limit values =
  let arr =
    Array.of_list
      (List.sort sort_order
         (List.filter (fun v -> not (Value.is_null v)) values))
  in
  of_sorted ?buckets ?mcv_limit arr (Array.length arr)
