(** Derived information about an SPJG block: the classified predicate
    components, column equivalence classes, per-class ranges, residual
    templates and the filter-tree search keys. This is computed once per
    query subexpression and once per view (the paper's in-memory "view
    description").

    Everything the section 3 tests read is resolved to dense column ids
    ({!Intern.cols}) here, once: the classes, the ranges keyed by class
    root, the residuals' and the output/grouping expressions' templates
    ({!Residual.shape}). The search keys come out of the same pass — a
    class read as a bitset of ids is already a key. *)

open Mv_base
module Sset = Mv_util.Sset
module Bitset = Mv_util.Bitset

(** The query-side filter-tree search keys (section 4.2), interned into the
    shared {!Intern} domains. *)
type keys = {
  source_tables : Bitset.t;
  output_expr_templates : Bitset.t;
  output_classes : Bitset.t list;
      (** query equivalence class (interned) of each bare-column output *)
  residual_templates : Bitset.t;
  extended_range_cols : Bitset.t;
      (** all columns of every range-constrained query class *)
  grouping_expr_templates : Bitset.t;
  grouping_classes : Bitset.t list;
  is_aggregate : bool;
}

type t = {
  spjg : Spjg.t;
  schema : Mv_catalog.Schema.t;
  table_set : Sset.t;
  table_key : Bitset.t;  (** [table_set] interned in {!Intern.tables} *)
  classified : Classify.classified;
  equiv : Equiv.t;
  ranges : Range.map;
  residuals : Residual.t list;
  out_shapes : Residual.shape array;
      (** aligned with [spjg.out]: the shape of a scalar output, or of the
          argument of a SUM/AVG; {!Residual.no_shape} for count *)
  group_shapes : Residual.shape array;  (** aligned with [spjg.group_by] *)
  keys : keys;
}

let keys (t : t) : keys = t.keys

let out_shape (o : Spjg.out_item) =
  match o.Spjg.def with
  | Spjg.Scalar e -> Residual.expr_shape e
  | Spjg.Aggregate (Spjg.Sum e | Spjg.Avg e) -> Residual.expr_shape e
  | Spjg.Aggregate _ -> Residual.no_shape

let is_template_expr = function Expr.Col _ | Expr.Const _ -> false | _ -> true

(* The output- and grouping-dependent fields: shapes and their keys. The
   table, residual and range keys depend on (tables, where) alone and are
   passed through. *)
let with_outputs (equiv : Equiv.t) (spjg : Spjg.t) (keys : keys) =
  let out_shapes = Array.of_list (List.map out_shape spjg.Spjg.out) in
  let gs = Option.value ~default:[] spjg.Spjg.group_by in
  let group_shapes = Array.of_list (List.map Residual.expr_shape gs) in
  (* the template key of the non-column expressions, and the class key of
     each bare column, over (expression, shape) pairs *)
  let template_key pairs =
    List.fold_left
      (fun acc (e, (s : Residual.shape)) ->
        if is_template_expr e then Bitset.add acc s.Residual.tid else acc)
      Bitset.empty pairs
  in
  let class_keys pairs =
    List.filter_map
      (fun (e, (s : Residual.shape)) ->
        match e with
        | Expr.Col _ -> Some (Equiv.class_key equiv s.Residual.ids.(0))
        | _ -> None)
      pairs
  in
  let scalars =
    List.concat
      (List.mapi
         (fun i (o : Spjg.out_item) ->
           match o.Spjg.def with
           | Spjg.Scalar e -> [ (e, out_shapes.(i)) ]
           | Spjg.Aggregate _ -> [])
         spjg.Spjg.out)
  in
  let groups = List.mapi (fun i g -> (g, group_shapes.(i))) gs in
  ( out_shapes,
    group_shapes,
    {
      keys with
      output_expr_templates = template_key scalars;
      output_classes = class_keys scalars;
      grouping_expr_templates = template_key groups;
      grouping_classes = class_keys groups;
      is_aggregate = Spjg.is_aggregate spjg;
    } )

let analyze (schema : Mv_catalog.Schema.t) (spjg : Spjg.t) : t =
  let classified = Classify.classify spjg.Spjg.where in
  let equiv =
    Equiv.build schema ~tables:spjg.Spjg.tables
      ~col_eqs:classified.Classify.col_eqs
  in
  let ranges =
    Range.build equiv classified.Classify.ranges
      classified.Classify.disj_ranges
  in
  let residuals = List.map Residual.of_pred classified.Classify.residuals in
  let table_key = Bitset.of_list (List.map Intern.table spjg.Spjg.tables) in
  let core_keys =
    {
      source_tables = table_key;
      output_expr_templates = Bitset.empty;
      output_classes = [];
      residual_templates =
        List.fold_left
          (fun acc (r : Residual.t) ->
            Bitset.add acc r.Residual.shape.Residual.tid)
          Bitset.empty residuals;
      extended_range_cols =
        List.fold_left
          (fun acc r -> Bitset.union acc (Equiv.class_key equiv r))
          Bitset.empty
          (Range.constrained_roots ranges);
      grouping_expr_templates = Bitset.empty;
      grouping_classes = [];
      is_aggregate = false;
    }
  in
  let out_shapes, group_shapes, keys = with_outputs equiv spjg core_keys in
  {
    spjg;
    schema;
    table_set = Sset.of_list spjg.Spjg.tables;
    table_key;
    classified;
    equiv;
    ranges;
    residuals;
    out_shapes;
    group_shapes;
    keys;
  }

(* Re-attach a different SPJG to an existing analysis. Sound only when the
   two expressions share tables and WHERE: every derived field except the
   output/grouping shapes and their keys depends on the block through
   (tables, where) alone, and those are recomputed. The optimizer uses
   this to analyze each (tables, where) core once per optimization even
   though it enumerates several blocks over it. *)
let rebind (t : t) (spjg : Spjg.t) : t =
  let out_shapes, group_shapes, keys = with_outputs t.equiv spjg t.keys in
  { t with spjg; out_shapes; group_shapes; keys }

(* Outputs that are bare column references: column -> output name. *)
let col_outputs (t : t) : (Col.t * string) list =
  List.filter_map
    (fun (o : Spjg.out_item) ->
      match o.Spjg.def with
      | Spjg.Scalar (Expr.Col c) -> Some (c, o.Spjg.name)
      | _ -> None)
    t.spjg.Spjg.out

(* All scalar outputs: expression -> output name (includes bare columns). *)
let scalar_outputs (t : t) : (Expr.t * string) list =
  List.filter_map
    (fun (o : Spjg.out_item) ->
      match o.Spjg.def with
      | Spjg.Scalar e -> Some (e, o.Spjg.name)
      | Spjg.Aggregate _ -> None)
    t.spjg.Spjg.out

(* ---- the key sets as columns and strings, for the view descriptor's
   readable fields and the reference filter in the tests ---- *)

let class_cols (t : t) c = Equiv.class_of t.equiv c

(* Extended output column list (section 4.2.3): every column equivalent to
   some bare-column output of the block, under the block's own classes. *)
let extended_output_cols (t : t) : Col.Set.t =
  List.fold_left
    (fun acc (c, _) -> Col.Set.union acc (class_cols t c))
    Col.Set.empty (col_outputs t)

(* Grouping expressions that are bare columns, extended by equivalence
   (section 4.2.4). *)
let extended_grouping_cols (t : t) : Col.Set.t =
  match t.spjg.Spjg.group_by with
  | None -> Col.Set.empty
  | Some gs ->
      List.fold_left
        (fun acc g ->
          match g with
          | Expr.Col c -> Col.Set.union acc (class_cols t c)
          | _ -> acc)
        Col.Set.empty gs

let templates_of exprs =
  List.fold_left
    (fun acc e ->
      if is_template_expr e then Sset.add (fst (Residual.expr_template e)) acc
      else acc)
    Sset.empty exprs

(* Textual templates of non-column output expressions / grouping
   expressions / residual predicates, for the filter-tree set conditions
   (sections 4.2.6-4.2.8). *)
let output_expr_templates (t : t) : Sset.t =
  templates_of (List.map fst (scalar_outputs t))

let grouping_expr_templates (t : t) : Sset.t =
  templates_of (Option.value ~default:[] t.spjg.Spjg.group_by)

let residual_templates (t : t) : Sset.t =
  List.fold_left
    (fun acc (r : Residual.t) -> Sset.add r.Residual.template acc)
    Sset.empty t.residuals

(* One class per constrained range, rendered as column sets
   (section 4.2.5). *)
let range_constrained_classes (t : t) : Col.Set.t list =
  List.map
    (fun r -> Equiv.to_colset (Equiv.class_ids t.equiv r))
    (Range.constrained_roots t.ranges)
