(** Compact immutable bitsets over dense non-negative ints (interned
    symbols, see {!Symbol}).

    Representation: an int array of [Sys.int_size]-bit words, little-endian,
    with no trailing zero words. The normalization makes structural
    equality, hashing and comparison well-defined regardless of when a set
    was built, so sets built before a symbol domain grew compare correctly
    against younger, wider sets (missing high words read as zero).

    The filter-tree hot path runs entirely on [subset] and [inter_empty]:
    both are straight word loops with an early exit — a handful of AND/OR
    instructions for the typical one-to-two-word key. *)

type t = int array

let word_bits = Sys.int_size

let empty : t = [||]

let is_empty (t : t) = Array.length t = 0

(* trim trailing zero words; reuses [a] when already normalized *)
let norm (a : int array) : t =
  let n = Array.length a in
  let rec top i = if i > 0 && a.(i - 1) = 0 then top (i - 1) else i in
  let m = top n in
  if m = n then a else Array.sub a 0 m

let check i =
  if i < 0 then invalid_arg "Bitset: negative element"

let mem (t : t) i =
  check i;
  let w = i / word_bits in
  w < Array.length t && (t.(w) lsr (i mod word_bits)) land 1 = 1

let add (t : t) i =
  check i;
  let w = i / word_bits in
  let n = Array.length t in
  if w < n then
    if (t.(w) lsr (i mod word_bits)) land 1 = 1 then t
    else begin
      let a = Array.copy t in
      a.(w) <- a.(w) lor (1 lsl (i mod word_bits));
      a
    end
  else begin
    let a = Array.make (w + 1) 0 in
    Array.blit t 0 a 0 n;
    a.(w) <- 1 lsl (i mod word_bits);
    a
  end

let singleton i = add empty i

let of_list is = List.fold_left add empty is

let remove (t : t) i =
  check i;
  let w = i / word_bits in
  if w >= Array.length t || (t.(w) lsr (i mod word_bits)) land 1 = 0 then t
  else begin
    let a = Array.copy t in
    a.(w) <- a.(w) land lnot (1 lsl (i mod word_bits));
    norm a
  end

let union (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let big, small = if la >= lb then (a, b) else (b, a) in
    let r = Array.copy big in
    for i = 0 to Array.length small - 1 do
      r.(i) <- r.(i) lor small.(i)
    done;
    r
  end

let inter (a : t) (b : t) : t =
  let l = min (Array.length a) (Array.length b) in
  if l = 0 then empty
  else begin
    let r = Array.make l 0 in
    for i = 0 to l - 1 do
      r.(i) <- a.(i) land b.(i)
    done;
    norm r
  end

(* The word loops below are top-level functions taking every operand as
   an argument: a local [go] capturing [a] and [b] would allocate a
   closure per call (the compiler does not flambda-inline it), and these
   are the filter tree's per-node predicates. *)

let rec subset_from (a : t) (b : t) la i =
  i >= la || (a.(i) land lnot b.(i) = 0 && subset_from a b la (i + 1))

(* a ⊆ b — normalization means a longer [a] always has a high bit outside b *)
let subset (a : t) (b : t) =
  let la = Array.length a in
  la <= Array.length b && subset_from a b la 0

let rec disjoint_from (a : t) (b : t) l i =
  i >= l || (a.(i) land b.(i) = 0 && disjoint_from a b l (i + 1))

let inter_empty (a : t) (b : t) =
  disjoint_from a b (min (Array.length a) (Array.length b)) 0

let rec equal_from (a : t) (b : t) la i =
  i >= la || (a.(i) = b.(i) && equal_from a b la (i + 1))

let equal (a : t) (b : t) =
  let la = Array.length a in
  la = Array.length b && equal_from a b la 0

let rec compare_from (a : t) (b : t) la i =
  if i >= la then 0
  else
    let c = Int.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b la (i + 1)

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb else compare_from a b la 0

let hash (t : t) =
  Array.fold_left (fun h w -> ((h * 0x1000193) lxor w) land max_int) 0x811c9dc5 t

let popcount w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let cardinal (t : t) = Array.fold_left (fun acc w -> acc + popcount w) 0 t

let fold f (t : t) init =
  let acc = ref init in
  Array.iteri
    (fun wi w ->
      let rec bits w =
        if w <> 0 then begin
          let b = w land -w in
          (* index of the lowest set bit *)
          let rec log2 b i = if b = 1 then i else log2 (b lsr 1) (i + 1) in
          acc := f ((wi * word_bits) + log2 b 0) !acc;
          bits (w land (w - 1))
        end
      in
      bits w)
    t;
  !acc

let iter f t = fold (fun i () -> f i) t ()

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let pp ppf t =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") int) (elements t)
