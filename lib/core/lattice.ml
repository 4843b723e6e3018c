(** The lattice index of section 4.1: keys are sets organized in a DAG by
    the subset partial order. Each node stores pointers to its minimal
    supersets ([supers]) and maximal subsets ([subs]); nodes without
    supersets are "tops", nodes without subsets are "roots".

    Searching for all subsets of S starts at the roots and climbs superset
    pointers; searching for supersets starts at the tops and descends. Both
    searches prune whole regions: if a node fails, everything on the far
    side of it fails too. The same traversal supports any monotone
    predicate, which is how the filter tree's output-column and
    grouping-column conditions (section 4.2.3/4.2.4) are evaluated.

    Keys are interned bitsets ({!Mv_util.Bitset}): the subset tests the
    traversal performs at every visited node are word-level AND loops — no
    string re-concatenation anywhere on the search path.

    A lattice is persistent: payloads live in an array by node id beside
    the DAG, and [update] copies that array, or the DAG when a key appears
    or vanishes, never writing what it was given. Each search marks the
    nodes it visits in a byte string of its own, so searches share no
    state: any number of domains may search one lattice concurrently, and
    a search may re-enter the lattice from inside its predicate. *)

module Bitset = Mv_util.Bitset

(* The link fields, and [tops]/[roots] below, are written only while
   [update] builds a fresh DAG, before the lattice holding it is
   returned. *)
type node = {
  id : int;  (** the node's slot in [nodes] and in the payload array *)
  key : Bitset.t;
  mutable supers : node list;
  mutable subs : node list;
}

type dag = {
  nodes : node array;  (** by id; ids are dense *)
  mutable tops : node list;
  mutable roots : node list;
}

type 'a t = { dag : dag; payloads : 'a array  (** by node id *) }

let empty_dag = { nodes = [||]; tops = []; roots = [] }

let empty = { dag = empty_dag; payloads = [||] }

let size t = Array.length t.payloads

(* The id of [key], or -1. Exact lookup scans the nodes: an update copies
   the payload array anyway, and the largest lattice of a 1000-view tree
   holds about a hundred keys. *)
let rec index_of nodes key i =
  if i = Array.length nodes then -1
  else if Bitset.equal nodes.(i).key key then i
  else index_of nodes key (i + 1)

let find t key =
  let i = index_of t.dag.nodes key 0 in
  if i < 0 then None else Some t.payloads.(i)

let fold f t acc =
  Array.fold_left (fun acc n -> f n.key t.payloads.(n.id) acc) acc t.dag.nodes

(* Generic pruned traversal, collecting [out.(id)] for every node that
   passes: the payloads for a search, the nodes themselves for a link.
   [`Down] starts at the tops and follows subset pointers: correct when
   [pred] failing on a key implies it fails on every subset (e.g. "key is
   a superset of S"). [`Up] starts at the roots and follows superset
   pointers: correct when failure propagates to supersets (e.g. "key is a
   subset of S"). Each node is visited at most once: [seen] marks the
   visited ids, and belongs to this search alone. *)
let collect d ~dir ~pred out =
  let seen = Bytes.make (Array.length d.nodes) '\000' in
  let acc = ref [] in
  let rec visit n =
    if Bytes.get seen n.id = '\000' then begin
      Bytes.set seen n.id '\001';
      if pred n.key then begin
        acc := out.(n.id) :: !acc;
        let next = match dir with `Down -> n.subs | `Up -> n.supers in
        List.iter visit next
      end
    end
  in
  let start = match dir with `Down -> d.tops | `Up -> d.roots in
  List.iter visit start;
  !acc

let search t ~dir ~pred = collect t.dag ~dir ~pred t.payloads

(* Keep only keys with no strict subset among [ns]. *)
let minimal_nodes ns =
  List.filter
    (fun n ->
      not
        (List.exists
           (fun m -> m.id <> n.id && Bitset.subset m.key n.key)
           ns))
    ns

let maximal_nodes ns =
  List.filter
    (fun n ->
      not
        (List.exists
           (fun m -> m.id <> n.id && Bitset.subset n.key m.key)
           ns))
    ns

let remove_node n ns = List.filter (fun m -> m.id <> n.id) ns

let mem_node n ns = List.exists (fun m -> m.id = n.id) ns

(* A fresh DAG with [d]'s shape minus node [drop] (-1: none), plus an
   unlinked node for [add], numbered last. Every list keeps its order, so
   searches visit the copy in the original's order; the nodes after [drop]
   move down one id. Also returns the map from [d]'s nodes to the copy's. *)
let copy ?add d ~drop =
  let renum i = if drop >= 0 && i > drop then i - 1 else i in
  let live = Array.length d.nodes - if drop >= 0 then 1 else 0 in
  let nodes =
    Array.init (live + Bool.to_int (Option.is_some add)) (fun i ->
        let key =
          if i = live then Option.get add
          else d.nodes.(if drop >= 0 && i >= drop then i + 1 else i).key
        in
        { id = i; key; supers = []; subs = [] })
  in
  let moved =
    List.filter_map (fun o ->
        if o.id = drop then None else Some nodes.(renum o.id))
  in
  Array.iter
    (fun o ->
      if o.id <> drop then begin
        let n = nodes.(renum o.id) in
        n.supers <- moved o.supers;
        n.subs <- moved o.subs
      end)
    d.nodes;
  ({ nodes; tops = moved d.tops; roots = moved d.roots }, moved)

(* Link [n] (already in its slot) between its maximal existing subsets and
   minimal existing supersets, removing the edges that become
   transitive. *)
let link d n =
  let key = n.key in
  let supers =
    minimal_nodes (collect d ~dir:`Down ~pred:(Bitset.subset key) d.nodes)
  in
  let subs =
    maximal_nodes
      (collect d ~dir:`Up ~pred:(fun k -> Bitset.subset k key) d.nodes)
  in
  n.supers <- supers;
  n.subs <- subs;
  List.iter
    (fun s ->
      (* edges from our subsets straight to s are now transitive *)
      let transitive, keep = List.partition (fun b -> mem_node b subs) s.subs in
      List.iter (fun b -> b.supers <- remove_node s b.supers) transitive;
      s.subs <- n :: keep)
    supers;
  List.iter (fun b -> b.supers <- n :: b.supers) subs;
  (* maintain tops and roots: every subset of n is no longer a top, every
     superset no longer a root *)
  List.iter (fun b -> d.tops <- remove_node b d.tops) subs;
  List.iter (fun s -> d.roots <- remove_node s d.roots) supers;
  if supers = [] then d.tops <- n :: d.tops;
  if subs = [] then d.roots <- n :: d.roots

(* A removed node's former [subs] and [supers], in a copy that already
   dropped it: reconnect each subset to each superset where no other path
   exists. *)
let relink d ~subs ~supers =
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          (* add b -> s unless some existing superset of b is below s *)
          let implied =
            List.exists
              (fun x -> x.id = s.id || Bitset.subset x.key s.key)
              b.supers
          in
          if not implied then begin
            b.supers <- s :: b.supers;
            (* drop s.subs entries that b now dominates *)
            let dominated, keep =
              List.partition
                (fun x -> Bitset.subset x.key b.key && x.id <> b.id)
                s.subs
            in
            List.iter (fun x -> x.supers <- remove_node s x.supers) dominated;
            s.subs <- b :: keep
          end)
        supers)
    subs;
  (* former subs may have become tops; former supers may be roots *)
  List.iter
    (fun b ->
      if b.supers = [] && not (mem_node b d.tops) then d.tops <- b :: d.tops)
    subs;
  List.iter
    (fun s ->
      if s.subs = [] && not (mem_node s d.roots) then d.roots <- s :: d.roots)
    supers

let update t key f =
  match index_of t.dag.nodes key 0 with
  | -1 -> (
      match f None with
      | None -> t
      | Some p ->
          let dag, _ = copy t.dag ~drop:(-1) ~add:key in
          link dag dag.nodes.(size t);
          { dag; payloads = Array.append t.payloads [| p |] })
  | id -> (
      match f (Some t.payloads.(id)) with
      | Some p ->
          let payloads = Array.copy t.payloads in
          payloads.(id) <- p;
          { t with payloads }
      | None ->
          let n = t.dag.nodes.(id) in
          let dag, moved = copy t.dag ~drop:id in
          relink dag ~subs:(moved n.subs) ~supers:(moved n.supers);
          let payloads =
            Array.init (size t - 1) (fun i ->
                t.payloads.(if i < id then i else i + 1))
          in
          { dag; payloads })

type shape = {
  links : (Bitset.t * Bitset.t list * Bitset.t list) list;
  tops : Bitset.t list;
  roots : Bitset.t list;
}

let shape t =
  let keys = List.map (fun n -> n.key) in
  let links n = (n.key, keys n.supers, keys n.subs) in
  let d = t.dag in
  {
    links = List.map links (Array.to_list d.nodes);
    tops = keys d.tops;
    roots = keys d.roots;
  }
