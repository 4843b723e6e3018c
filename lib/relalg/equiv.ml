(** Column equivalence classes (section 3.1.1), over dense column ids.

    Every column of every referenced table starts in its own (trivial)
    class; each column-equality predicate merges two classes. Columns are
    the {!Intern.cols} ids, so a class read as a bitset is directly a
    filter-tree key.

    One int array holds the whole partition, two cells per column id:
    - [cells.(2c)] is [-1] when [c] is not registered, [-2 - rank] when
      [c] is the root of its class (union by rank), and the root's id
      otherwise;
    - [cells.(2c + 1)] is the next member of [c]'s class, a circular
      list, so a class is enumerated without scanning.

    A merge relabels the absorbed class and splices the two member
    cycles, so every column always names its root directly: reads are
    plain array loads and never write. That is what lets one view's
    classes be read from many domains at once. *)

open Mv_base

type t = { mutable cells : int array }

let absent = -1

let capacity t = Array.length t.cells / 2

let ensure t n =
  if n > capacity t then begin
    let cells = Array.make (2 * max n (2 * capacity t)) absent in
    Array.blit t.cells 0 cells 0 (Array.length t.cells);
    t.cells <- cells
  end

let mem t c = c < capacity t && t.cells.(2 * c) <> absent

let add_id t c =
  ensure t (c + 1);
  if t.cells.(2 * c) = absent then begin
    t.cells.(2 * c) <- -2;
    t.cells.((2 * c) + 1) <- c
  end

(* The class root; an unregistered column is its own singleton. *)
let root t c =
  if c >= capacity t then c
  else
    let x = t.cells.(2 * c) in
    if x >= 0 then x else c

let same_id t a b = a = b || root t a = root t b

let next t c = if mem t c then t.cells.((2 * c) + 1) else c

let fold_class f t c acc =
  if not (mem t c) then f c acc
  else
    let rec go m acc =
      let acc = f m acc in
      let m' = t.cells.((2 * m) + 1) in
      if m' = c then acc else go m' acc
    in
    go c acc

let iter_class f t c = fold_class (fun m () -> f m) t c ()

let exists_in_class p t c =
  let rec go m =
    p m
    ||
    let m' = next t m in
    m' <> c && go m'
  in
  go c

let is_trivial t c = next t c = c

let class_ids t c = fold_class (fun m acc -> m :: acc) t c []

let class_key t c = fold_class (fun m acc -> Mv_util.Bitset.add acc m) t c
    Mv_util.Bitset.empty

(* Union by rank, ties going to the first argument's root. Roots decide
   the order compensations are listed in (see [Spj_match]), so the rule
   is part of the output: test/ref_equiv.ml follows the same one. *)
let merge_ids t a b =
  add_id t a;
  add_id t b;
  let ra = root t a and rb = root t b in
  if ra <> rb then begin
    let ka = -2 - t.cells.(2 * ra) and kb = -2 - t.cells.(2 * rb) in
    let absorb ~into r =
      iter_class (fun m -> t.cells.(2 * m) <- into) t r;
      let ni = t.cells.((2 * into) + 1) in
      t.cells.((2 * into) + 1) <- t.cells.((2 * r) + 1);
      t.cells.((2 * r) + 1) <- ni
    in
    if ka < kb then absorb ~into:rb ra
    else if ka > kb then absorb ~into:ra rb
    else begin
      absorb ~into:ra rb;
      t.cells.(2 * ra) <- -2 - (ka + 1)
    end
  end

let create () = { cells = [||] }

let copy t = { cells = Array.copy t.cells }

(* A copy with room for every id below [n], so extending it never
   reallocates. *)
let copy_with_capacity t n =
  let cells = Array.make (2 * max n (capacity t)) absent in
  Array.blit t.cells 0 cells 0 (Array.length t.cells);
  { cells }

let add_table_ids t ids = Array.iter (add_id t) ids

let table_ids schema tbl =
  Intern.table_cols (Mv_catalog.Schema.table_exn schema tbl)

(* Register every column of [tables] as a trivial class (used when the
   matcher conceptually adds a view's extra tables to the query,
   section 3.2). *)
let add_tables schema t tables =
  List.iter (fun tbl -> add_table_ids t (table_ids schema tbl)) tables

(* Register all columns of [tables] as trivial classes, then merge by the
   column-equality predicates. *)
let build (schema : Mv_catalog.Schema.t) ~tables
    ~(col_eqs : (Col.t * Col.t) list) : t =
  let ids = List.map (table_ids schema) tables in
  let n = List.fold_left (Array.fold_left (fun n c -> max n (c + 1))) 0 ids in
  let t = { cells = Array.make (2 * n) absent } in
  List.iter (add_table_ids t) ids;
  List.iter (fun (a, b) -> merge_ids t (Intern.col a) (Intern.col b))
    col_eqs;
  t

(* Every registered column in increasing id order. *)
let fold_ids f t acc =
  let acc = ref acc in
  for c = capacity t - 1 downto 0 do
    if t.cells.(2 * c) <> absent then acc := f c !acc
  done;
  !acc

(* Class roots in increasing id order. *)
let roots t = fold_ids (fun c acc -> if root t c = c then c :: acc else acc) t []

let nontrivial_roots t =
  fold_ids
    (fun c acc -> if root t c = c && not (is_trivial t c) then c :: acc else acc)
    t []

let nontrivial_ids t =
  List.filter_map
    (fun r ->
      if is_trivial t r then None else Some (Array.of_list (class_ids t r)))
    (roots t)

(* ---- column-level views, for diagnostics and tests ---- *)

let to_colset ids =
  List.fold_left (fun s c -> Col.Set.add (Intern.col_of_id c) s) Col.Set.empty
    ids

let merge t a b = merge_ids t (Intern.col a) (Intern.col b)

let same t a b = Col.equal a b || same_id t (Intern.col a) (Intern.col b)

let class_of t c = to_colset (class_ids t (Intern.col c))

let classes t = List.map (fun r -> to_colset (class_ids t r)) (roots t)

let nontrivial_classes t =
  List.filter (fun s -> Col.Set.cardinal s > 1) (classes t)

(* Is every member of [cls] in the same class of [t]? (Used for the
   equijoin subsumption test: view class subset of a query class.) *)
let class_within t (cls : Col.Set.t) =
  match Col.Set.elements cls with
  | [] -> true
  | c :: rest -> List.for_all (fun x -> same t c x) rest

let pp ppf t =
  let pp_class ppf s =
    Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") Col.pp) (Col.Set.elements s)
  in
  Fmt.pf ppf "%a" Fmt.(list ~sep:(any " ") pp_class) (nontrivial_classes t)
