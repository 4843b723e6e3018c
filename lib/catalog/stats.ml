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

(* A column's statistics, built or deferred. A deferred column's builder
   runs at its first [col_stats] read, which keeps the result; two domains
   reading it at once may both run it, each keeping an equal result, where
   a [Lazy.t] forced from a second domain would raise. *)
type cell = Built of col_stats | Deferred of (unit -> col_stats)

type column = {
  mutable cell : cell;
  mutable read : bool;  (** [col_stats] has read it *)
}

type table_stats = {
  row_count : int;
  columns : (string * column) list;
}

(* Entries by table name, compared with [String.compare]: a read costs a
   logarithmic number of string comparisons however many views have an
   entry. *)
module Names = Map.Make (String)

type t = table_stats Names.t

let empty : t = Names.empty

(* The first binding of a name wins, as [List.assoc] finds it. *)
let of_list l =
  List.fold_left
    (fun m (name, ts) -> if Names.mem name m then m else Names.add name ts m)
    Names.empty l

let add = Names.add
let bindings = Names.bindings

let default_row_count = 1000

let make_col ?hist ?(mcvs = []) ~min_v ~max_v ~ndv () =
  { min_v; max_v; ndv; hist; mcvs }

let built cs = { cell = Built cs; read = false }

(* [f] of the column named [name], found by [String.equal]. *)
let rec find_column f name = function
  | [] -> None
  | (n, c) :: rest ->
      if String.equal n name then Some (f c) else find_column f name rest

let rebuild prev ~row_count builders =
  let read name =
    match prev with
    | None -> false
    | Some p -> (
        match find_column (fun c -> c.read) name p.columns with
        | Some r -> r
        | None -> false)
  in
  {
    row_count;
    columns =
      List.map
        (fun (name, build) ->
          ( name,
            if read name then { cell = Built (build ()); read = true }
            else { cell = Deferred build; read = false } ))
        builders;
  }

let is_built c = match c.cell with Built _ -> true | Deferred _ -> false

let was_read c = c.read

let force c = match c.cell with Built cs -> cs | Deferred build -> build ()

(* Structural equality, typed: an [Int] never equals the numerically
   equal [Float], and floats compare as [=] compares them. *)
let same_value (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Null, Null -> true
  | Int x, Int y | Date x, Date y -> Int.equal x y
  | Float x, Float y -> x = y
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | _ -> false

let same_array eq a b =
  Array.length a = Array.length b && Array.for_all2 eq a b

let same_col_stats a b =
  same_value a.min_v b.min_v
  && same_value a.max_v b.max_v
  && Int.equal a.ndv b.ndv
  && Option.equal
       (fun h g ->
         same_value h.h_lo g.h_lo
         && same_array same_value h.h_bounds g.h_bounds
         && same_array Int.equal h.h_counts g.h_counts)
       a.hist b.hist
  && List.equal
       (fun (v, k) (w, l) -> same_value v w && Int.equal k l)
       a.mcvs b.mcvs

let equal_table a b =
  Int.equal a.row_count b.row_count
  && List.equal
       (fun (n, c) (m, d) ->
         String.equal n m && same_col_stats (force c) (force d))
       a.columns b.columns

let table t name : table_stats option = Names.find_opt name t

(* Looking up an unknown table is a cost-model blind spot worth seeing on a
   dashboard, not a silent guess: bump [cost.stats.missing] on the global
   registry each time the fallback fires. The handles are resolved on
   first use, so merely linking mv_catalog never touches the registry
   mutex. *)
let counter name =
  Mv_obs.Registry.resolver Mv_obs.Registry.counter Mv_obs.Registry.global name

let missing_counter = counter "cost.stats.missing"
let built_on_read = counter "stats.columns.built_on_read"

let row_count t name =
  match table t name with
  | Some ts -> ts.row_count
  | None ->
      Mv_obs.Instrument.incr (missing_counter ());
      default_row_count

(* The read bit is written only when unset, so a column read on every
   query is not written, nor its cache line dirtied for the other
   domains reading it, on every read. *)
let read c =
  if not c.read then c.read <- true;
  match c.cell with
  | Built cs -> cs
  | Deferred build ->
      let cs = build () in
      c.cell <- Built cs;
      Mv_obs.Instrument.incr (built_on_read ());
      cs

let col_stats t (c : Col.t) =
  match table t c.Col.tbl with
  | None -> None
  | Some ts -> find_column read c.Col.col ts.columns

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

let search ~cmp arr lo hi v ~above =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = cmp arr.(mid) v in
    if c < 0 || (above && c = 0) then lo := mid + 1 else hi := mid
  done;
  !lo

let build_column ?(buckets = 16) ?(mcv_limit = 32) (values : Value.t list) :
    col_stats =
  (* the non-null values, copied once into an array and sorted in place
     by a stable merge sort: of values [sort_order] calls equal, the
     first in the input stays first *)
  let n =
    List.fold_left (fun k v -> if Value.is_null v then k else k + 1) 0 values
  in
  let arr = Array.make n Value.Null in
  ignore
    (List.fold_left
       (fun i v ->
         if Value.is_null v then i
         else begin
           arr.(i) <- v;
           i + 1
         end)
       0 values);
  Array.stable_sort sort_order arr;
  if n = 0 then make_col ~min_v:Value.Null ~max_v:Value.Null ~ndv:0 ()
  else begin
    let ndv = ref 1 in
    for i = 1 to n - 1 do
      if Value.order arr.(i - 1) arr.(i) <> 0 then incr ndv
    done;
    let ndv = !ndv in
    (* the slot after the run holding slot [i]: the values [Value.order]
       calls equal (an [Int] and its [Float] among them) are contiguous
       in a [sort_order]ed array *)
    let run_end i =
      search ~cmp:Value.order arr (i + 1) n arr.(i) ~above:true
    in
    let mcvs =
      if ndv <= mcv_limit then begin
        (* Exhaustive: every distinct value with its exact multiplicity,
           heaviest first (ties broken by value order for determinism). *)
        let rec runs i acc =
          if i >= n then List.rev acc
          else
            let j = run_end i in
            runs j ((arr.(i), j - i) :: acc)
        in
        List.stable_sort (fun (_, a) (_, b) -> Int.compare b a) (runs 0 [])
      end
      else []
    in
    let hist =
      if ndv <= 1 then None
      else begin
        (* Equi-depth cut: a bucket starting at slot [s] closes at the end
           of the run holding slot [s + depth - 1] (or the last run), and
           its bound is that run's first value. With fewer runs than
           buckets the depth is [ceil(n / ndv)], which makes at most [ndv]
           buckets. Each bucket costs two binary searches. *)
        let depth =
          if ndv < buckets then (n + ndv - 1) / ndv
          else (n + buckets - 1) / buckets
        in
        let rec cut s bounds counts =
          if s >= n then (bounds, counts)
          else
            let p = Int.min (s + depth - 1) (n - 1) in
            let e = run_end p in
            cut e
              (arr.(search ~cmp:Value.order arr s p arr.(p) ~above:false)
               :: bounds)
              ((e - s) :: counts)
        in
        let bounds, counts = cut 0 [] [] in
        Some
          {
            h_lo = arr.(0);
            h_bounds = Array.of_list (List.rev bounds);
            h_counts = Array.of_list (List.rev counts);
          }
      end
    in
    make_col ?hist ~mcvs ~min_v:arr.(0) ~max_v:arr.(n - 1) ~ndv ()
  end

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
  let total = float_of_int (Int.max 1 (hist_total h)) in
  if Value.order v h.h_lo < 0 then 0.0
  else begin
    let acc = ref 0 and lo = ref h.h_lo in
    let result = ref None in
    Array.iteri
      (fun i b ->
        if Option.is_none !result then
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
        float_of_int
          (Int.max 1 (List.fold_left (fun a (_, k) -> a + k) 0 mcvs))
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
      | Pred.Eq -> 1.0 /. float_of_int (Int.max 1 cs.ndv)
      | Pred.Ne -> 1.0 -. (1.0 /. float_of_int (Int.max 1 cs.ndv))
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
        | None -> 1.0 /. float_of_int (Int.max 1 cs.ndv)
      in
      match (op, cs.hist) with
      | (Pred.Eq | Pred.Ne), _
        when (not (List.is_empty cs.mcvs)) || Option.is_some cs.hist ->
          let eq = eq_sel () in
          clamp (match op with Pred.Eq -> eq | _ -> 1.0 -. eq)
      | Pred.Le, Some h -> clamp (hist_frac_le h v)
      | Pred.Lt, Some h -> clamp (hist_frac_le h v -. eq_sel ())
      | Pred.Gt, Some h -> clamp (1.0 -. hist_frac_le h v)
      | Pred.Ge, Some h -> clamp (1.0 -. hist_frac_le h v +. eq_sel ())
      | _ -> uniform_selectivity cs op v)

let ndv t c =
  match col_stats t c with Some cs -> Int.max 1 cs.ndv | None -> 100
