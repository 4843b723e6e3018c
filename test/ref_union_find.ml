(** Reference union-find (disjoint sets) over an arbitrary ordered key
    type: persistent maps with path compression and union by rank. It is
    the structure the library's column equivalence classes used before
    they moved to dense ids ({!Mv_relalg.Equiv}); the tests keep it as the
    model {!Ref_equiv} is built on. Note that [find] registers unknown
    keys and compresses paths, so here a read writes. *)

module Make (Ord : Map.OrderedType) = struct
  module M = Map.Make (Ord)

  type t = {
    mutable parent : Ord.t M.t;
    mutable rank : int M.t;
  }

  let create () = { parent = M.empty; rank = M.empty }

  (* Ensure [x] is present as a singleton class. *)
  let add t x =
    if not (M.mem x t.parent) then begin
      t.parent <- M.add x x t.parent;
      t.rank <- M.add x 0 t.rank
    end

  let rec find t x =
    add t x;
    let p = M.find x t.parent in
    if Ord.compare p x = 0 then x
    else begin
      let root = find t p in
      t.parent <- M.add x root t.parent;
      root
    end

  let union t x y =
    let rx = find t x and ry = find t y in
    if Ord.compare rx ry <> 0 then begin
      let kx = M.find rx t.rank and ky = M.find ry t.rank in
      if kx < ky then t.parent <- M.add rx ry t.parent
      else if kx > ky then t.parent <- M.add ry rx t.parent
      else begin
        t.parent <- M.add ry rx t.parent;
        t.rank <- M.add rx (kx + 1) t.rank
      end
    end

  let same t x y = Ord.compare (find t x) (find t y) = 0

  let members t = M.fold (fun k _ acc -> k :: acc) t.parent []

  (* All classes, each as a list of members; singletons included. *)
  let classes t =
    let by_root =
      List.fold_left
        (fun acc x ->
          let r = find t x in
          let cur = try M.find r acc with Not_found -> [] in
          M.add r (x :: cur) acc)
        M.empty (members t)
    in
    M.fold (fun _ xs acc -> List.rev xs :: acc) by_root []

  let copy t = { parent = t.parent; rank = t.rank }
end
