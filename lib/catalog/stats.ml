(** Table and column statistics used by the cost model and by the workload
    generator's cardinality targeting (section 5: predicates are added until
    the estimated SPJ cardinality falls in a target band). *)

open Mv_base

type hist = {
  h_lo : Value.t;
  h_bounds : Value.t array;
  h_counts : int array;
}

type col_stats = {
  min_v : Value.t;
  max_v : Value.t;
  ndv : int;  (** number of distinct values *)
  hist : hist option;
  mcvs : (Value.t * int) list;
}

type table_stats = {
  row_count : int;
  columns : (string * col_stats) list;
}

type t = (string * table_stats) list

let empty : t = []

let default_row_count = 1000

let make_col ?hist ?(mcvs = []) ~min_v ~max_v ~ndv () =
  { min_v; max_v; ndv; hist; mcvs }

let table t name : table_stats option = List.assoc_opt name t

(* Looking up an unknown table is a cost-model blind spot worth seeing on a
   dashboard, not a silent guess: bump [cost.stats.missing] on the global
   registry each time the fallback fires. The handle is lazy so merely
   linking mv_catalog never touches the registry mutex. *)
let missing_counter =
  lazy (Mv_obs.Registry.counter Mv_obs.Registry.global "cost.stats.missing")

let row_count t name =
  match table t name with
  | Some ts -> ts.row_count
  | None ->
      Mv_obs.Instrument.incr (Lazy.force missing_counter);
      default_row_count

let col_stats t (c : Col.t) =
  match table t c.Col.tbl with
  | None -> None
  | Some ts -> List.assoc_opt c.Col.col ts.columns

(* ---- histogram construction ------------------------------------------- *)

let hist_total h = Array.fold_left ( + ) 0 h.h_counts

(* [Value.order], with a numerically equal Int before a Float: equal
   multisets then sort to arrays that agree element by element under
   structural equality, whichever order the values came in. *)
let sort_order a b =
  match Value.order a b with
  | 0 -> (
      match (a, b) with
      | Value.Int _, Value.Float _ -> -1
      | Value.Float _, Value.Int _ -> 1
      | _ -> 0)
  | c -> c

let of_sorted ?(buckets = 16) ?(mcv_limit = 32) (arr : Value.t array) n :
    col_stats =
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
            h_lo = arr.(0);
            h_bounds = Array.of_list (List.rev !bounds);
            h_counts = Array.of_list (List.rev !counts);
          }
      end
    in
    make_col ?hist ~mcvs ~min_v:arr.(0) ~max_v:arr.(n - 1) ~ndv ()
  end

let build_column ?buckets ?mcv_limit (values : Value.t list) : col_stats =
  (* a list merge sort: fewer comparisons than [Array.sort]'s heap sort,
     and no write barrier on a major-heap array *)
  let arr =
    Array.of_list
      (List.sort sort_order
         (List.filter (fun v -> not (Value.is_null v)) values))
  in
  of_sorted ?buckets ?mcv_limit arr (Array.length arr)

(* ---- selectivity ------------------------------------------------------ *)

let clamp sel = Float.max 0.0001 (Float.min 1.0 sel)

(* Position of [v] within [lo, hi] when the values interpolate (numeric or
   date); [None] for strings/bools where only ordering is known. *)
let frac_between lo hi v =
  match (Value.as_float lo, Value.as_float hi, Value.as_float v) with
  | Some l, Some h, Some x when h > l ->
      Some (Float.max 0.0 (Float.min 1.0 ((x -. l) /. (h -. l))))
  | _ -> (
      match (lo, hi, v) with
      | Value.Date l, Value.Date h, Value.Date x when h > l ->
          Some
            (Float.max 0.0
               (Float.min 1.0 (float_of_int (x - l) /. float_of_int (h - l))))
      | _ -> None)

(* Fraction of histogrammed rows with value <= v. Bucket [i] covers
   (bound[i-1], bound[i]] (bucket 0 starts at [h_lo], inclusive); within
   the bucket containing [v] we interpolate, defaulting to half the bucket
   when the domain does not interpolate. *)
let hist_frac_le h v =
  let total = float_of_int (max 1 (hist_total h)) in
  if Value.order v h.h_lo < 0 then 0.0
  else begin
    let acc = ref 0 and lo = ref h.h_lo in
    let result = ref None in
    Array.iteri
      (fun i b ->
        if !result = None then
          if Value.order b v <= 0 then begin
            acc := !acc + h.h_counts.(i);
            lo := b
          end
          else
            let f =
              match frac_between !lo b v with Some f -> f | None -> 0.5
            in
            result :=
              Some
                ((float_of_int !acc +. (f *. float_of_int h.h_counts.(i)))
                /. total))
      h.h_bounds;
    match !result with Some r -> r | None -> 1.0
  end

(* Exact fraction for [col = v] when the MCV list is exhaustive. *)
let mcv_frac cs v =
  match cs.mcvs with
  | [] -> None
  | mcvs ->
      let total =
        float_of_int (max 1 (List.fold_left (fun a (_, k) -> a + k) 0 mcvs))
      in
      let hit =
        List.find_opt (fun (m, _) -> Value.order m v = 0) mcvs
      in
      Some
        (match hit with
        | Some (_, k) -> float_of_int k /. total
        | None -> 0.0 (* exhaustive list: the value does not occur *))

(* The pre-histogram uniform-interpolation estimate, kept verbatim as the
   fallback so tables with analytic stats (no histograms) cost exactly as
   before. *)
let uniform_selectivity cs (op : Pred.cmp) (v : Value.t) =
  let default =
    match op with Pred.Eq -> 0.05 | Pred.Ne -> 0.95 | _ -> 0.33
  in
  let interp frac =
    let sel =
      match op with
      | Pred.Eq -> 1.0 /. float_of_int (max 1 cs.ndv)
      | Pred.Ne -> 1.0 -. (1.0 /. float_of_int (max 1 cs.ndv))
      | Pred.Lt | Pred.Le -> frac
      | Pred.Gt | Pred.Ge -> 1.0 -. frac
    in
    clamp sel
  in
  match frac_between cs.min_v cs.max_v v with
  | Some frac -> interp frac
  | None -> default

let range_selectivity t c (op : Pred.cmp) (v : Value.t) =
  match col_stats t c with
  | None -> (
      match op with Pred.Eq -> 0.05 | Pred.Ne -> 0.95 | _ -> 0.33)
  | Some cs -> (
      let eq_sel () =
        match mcv_frac cs v with
        | Some f -> f
        | None -> 1.0 /. float_of_int (max 1 cs.ndv)
      in
      match (op, cs.hist) with
      | (Pred.Eq | Pred.Ne), _ when cs.mcvs <> [] || cs.hist <> None ->
          let eq = eq_sel () in
          clamp (match op with Pred.Eq -> eq | _ -> 1.0 -. eq)
      | (Pred.Lt | Pred.Le | Pred.Gt | Pred.Ge), Some h ->
          let le = hist_frac_le h v in
          let eq = eq_sel () in
          let sel =
            match op with
            | Pred.Le -> le
            | Pred.Lt -> le -. eq
            | Pred.Gt -> 1.0 -. le
            | Pred.Ge -> 1.0 -. le +. eq
            | _ -> assert false
          in
          clamp sel
      | _ -> uniform_selectivity cs op v)

let ndv t c = match col_stats t c with Some cs -> max 1 cs.ndv | None -> 100
