(** The shared symbol domains behind the filter-tree keys (section 4).

    Every level key is a set drawn from one of three small vocabularies —
    table names (hub / source-table conditions), qualified column names
    (output / grouping / range-column conditions) or textual templates
    (residual predicates, output and grouping expressions). Each vocabulary
    is interned in its own {!Mv_util.Symbol} domain so ids stay dense and
    the {!Mv_util.Bitset} keys built from them stay one or two words wide.

    The domains are process-global on purpose: view descriptors are built
    once at registration and then shared across registries, experiment
    sweeps and query batches, so their interned keys must mean the same
    thing everywhere. Domains only ever grow; existing bitsets stay valid. *)

open Mv_base
module Symbol = Mv_util.Symbol
module Bitset = Mv_util.Bitset
module Sset = Mv_util.Sset

let tables = Symbol.create "tables"

let cols = Symbol.create "columns"

let templates = Symbol.create "templates"

let table t = Symbol.intern tables t

(* Append-only tables indexed by column id. Reads load a published array
   and never lock; growth copies under the table's mutex and republishes.
   Filling a slot in place is a benign race: every writer of a slot
   stores an equal value. *)
type 'a by_col = { cells : 'a array Atomic.t; lock : Mutex.t; missing : 'a }

let by_col missing = { cells = Atomic.make [||]; lock = Mutex.create (); missing }

let by_col_get t id =
  let a = Atomic.get t.cells in
  if id < Array.length a then a.(id) else t.missing

let by_col_set t id v =
  Mutex.protect t.lock (fun () ->
      let a = Atomic.get t.cells in
      let a =
        if id < Array.length a then a
        else begin
          let b = Array.make (max 64 (2 * (id + 1))) t.missing in
          Array.blit a 0 b 0 (Array.length a);
          Atomic.set t.cells b;
          b
        end
      in
      a.(id) <- v)

(* The inverse of {!col}: a slot is filled before [col] hands its id out,
   so any id an analysis holds resolves. *)
let col_names = by_col (Col.make "" "")

let intern_col c =
  let id = Symbol.intern cols (Col.to_string c) in
  if by_col_get col_names id == col_names.missing then by_col_set col_names id c;
  id

let col_of_id id = by_col_get col_names id

(* Per-table column ids, in declaration order, cached by table name. Ids
   depend on the qualified name alone, so a definition with the same name
   from another schema shares them; the cache re-validates by physical
   equality and recomputes on a mismatch. Published as an immutable map
   behind an [Atomic.t]: lookups never lock. *)
module Smap = Map.Make (String)

let table_col_ids :
    (Mv_catalog.Table_def.t * int array) Smap.t Atomic.t =
  Atomic.make Smap.empty

let table_cols (td : Mv_catalog.Table_def.t) =
  let name = td.Mv_catalog.Table_def.name in
  match Smap.find_opt name (Atomic.get table_col_ids) with
  | Some (td', ids) when td' == td -> ids
  | _ ->
      let ids =
        Array.of_list
          (List.map
             (fun c -> intern_col (Col.make name c))
             (Mv_catalog.Table_def.column_names td))
      in
      let rec publish () =
        let m = Atomic.get table_col_ids in
        if
          not
            (Atomic.compare_and_set table_col_ids m
               (Smap.add name (td, ids) m))
        then publish ()
      in
      publish ();
      ids

(* Once the column's table has been through [table_cols], its position in
   the cached definition gives the id without building the string. *)
let col (c : Col.t) =
  match Smap.find_opt c.Col.tbl (Atomic.get table_col_ids) with
  | None -> intern_col c
  | Some (td, ids) ->
      let rec find i = function
        | [] -> intern_col c
        | (cd : Mv_catalog.Column.t) :: rest ->
            if String.equal cd.Mv_catalog.Column.name c.Col.col then ids.(i)
            else find (i + 1) rest
      in
      find 0 td.Mv_catalog.Table_def.columns

let template s = Symbol.intern templates s

let of_sset dom s =
  Sset.fold (fun x acc -> Bitset.add acc (Symbol.intern dom x)) s Bitset.empty

(* Freeze all three domains (see {!Mv_util.Symbol.freeze}): lookups of the
   registered vocabulary become lock-free, which is what query-side key
   construction from concurrently running domains hits almost exclusively.
   Every registry publication calls it; genuinely new strings (a query
   template no view ever used) still intern correctly via the mutex. *)
let freeze () =
  Symbol.freeze tables;
  Symbol.freeze cols;
  Symbol.freeze templates
