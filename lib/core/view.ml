(** A materialized view: its SPJG definition plus the precomputed in-memory
    description the paper keeps — the filter-tree keys (section 4) and
    everything the section 3 tests read from the view, both computed once
    at registration. *)

open Mv_base
module Sset = Mv_util.Sset
module Bitset = Mv_util.Bitset
module Intern = Mv_relalg.Intern

(** The view's filter-tree keys, interned once at registration (the paper
    computes the in-memory view description once and reuses it for every
    query; so do we — no per-search string work). Field order mirrors the
    filter-tree levels. *)
type keys = {
  hub : Bitset.t;
  source_tables : Bitset.t;
  output_exprs : Bitset.t;
  output_cols : Bitset.t;
  residuals : Bitset.t;
  range_cols : Bitset.t;
  grouping_exprs : Bitset.t;
  grouping_cols : Bitset.t;
  range_classes : Bitset.t list;
      (** full range-constraint list for the strong post-check *)
}

(** The CHECK constraints of a view's tables (section 3.1.2), classified
    and resolved to column ids. They hold on every base row, so the
    matcher adds them to the query side of its implications. *)
type checks = {
  check_eqs : (int * int) list;
  check_ranges : (int * Mv_relalg.Rset.t) list;
      (** per column: the intersection of its CHECK ranges *)
  check_residuals : Mv_relalg.Residual.t list;
}

(** Everything the section 3 tests read from the view, computed once at
    registration: a rule invocation then does only query-dependent work.
    Field order follows the tests. *)
type matching = {
  fk_edges : Fk_graph.edge list;
      (** {!Fk_graph.equated_edges}: filtered by mode per match *)
  checks : checks;
  nontrivial : int array list;  (** the nontrivial classes, as ids *)
  range_sets : Mv_relalg.Range.map;
      (** the constrained classes' range sets, keyed by class root *)
  out_cols : int array;
      (** the column id of each bare-column output, in output order *)
  out_col_names : string array;  (** their names *)
  expr_outs : (Mv_relalg.Residual.shape * string) list;
      (** the non-column scalar outputs *)
  sum_outs : (Mv_relalg.Residual.shape * string) list;
      (** the SUM outputs, by argument shape *)
  count_out : string option;  (** the count_big( * ) output *)
}

type t = {
  name : string;
  analysis : Mv_relalg.Analysis.t;
  matching : matching;
  hub : Sset.t;
  source_tables : Sset.t;
  keys : keys;
  mutable row_count : int;  (** statistics for the cost model *)
  mutable indexes : string list list;
      (** secondary indexes over output columns (Example 1 creates one on
          (gross_revenue, p_name)); considered automatically by the cost
          model and built at materialization time *)
  stale : bool Atomic.t;
      (** freshness mark (DESIGN.md §12): set when a base table is written
          without the view's contents being maintained, cleared by
          materialize/refresh. Atomic so write-side marking and a
          [fresh_only] matcher on another domain never race. *)
}

(* CHECK components depend on the table set alone, so views over the same
   tables share one record. Registration is not a hot path; a mutex keeps
   the memo safe when registries are built from several domains. *)
let checks_memo : (string list, Mv_catalog.Schema.t * checks) Hashtbl.t =
  Hashtbl.create 16

let checks_lock = Mutex.create ()

let checks_for schema tables =
  let compute () =
    let cl =
      Mv_relalg.Classify.classify
        (List.concat_map Mv_relalg.Cnf.conjuncts
           (Mv_catalog.Schema.checks_for schema tables))
    in
    let equiv = Mv_relalg.Equiv.create () in
    let ranges =
      Mv_relalg.Range.of_cols equiv
        (Mv_relalg.Range.constraints cl.Mv_relalg.Classify.ranges
           cl.Mv_relalg.Classify.disj_ranges)
    in
    {
      check_eqs =
        List.map
          (fun (a, b) -> (Intern.col a, Intern.col b))
          cl.Mv_relalg.Classify.col_eqs;
      check_ranges = ranges;
      check_residuals =
        List.map Mv_relalg.Residual.of_pred cl.Mv_relalg.Classify.residuals;
    }
  in
  Mutex.protect checks_lock (fun () ->
      match Hashtbl.find_opt checks_memo tables with
      | Some (s, c) when s == schema -> c
      | _ ->
          let c = compute () in
          Hashtbl.replace checks_memo tables (schema, c);
          c)

let matching_of schema (a : Mv_relalg.Analysis.t) : matching =
  let module A = Mv_relalg.Analysis in
  let module S = Mv_relalg.Spjg in
  let out = List.mapi (fun i o -> (o, a.A.out_shapes.(i))) a.A.spjg.S.out in
  let bare =
    List.filter_map
      (fun ((o : S.out_item), (s : Mv_relalg.Residual.shape)) ->
        match o.S.def with
        | S.Scalar (Expr.Col _) -> Some (s.Mv_relalg.Residual.ids.(0), o.S.name)
        | _ -> None)
      out
  in
  let outs_where p =
    List.filter_map
      (fun ((o : S.out_item), s) ->
        if p o.S.def then Some (s, o.S.name) else None)
      out
  in
  {
    fk_edges = Fk_graph.equated_edges a;
    checks = checks_for schema a.A.spjg.S.tables;
    nontrivial = Mv_relalg.Equiv.nontrivial_ids a.A.equiv;
    range_sets =
      List.filter (fun (_, s) -> not (Mv_relalg.Rset.is_full s)) a.A.ranges;
    out_cols = Array.of_list (List.map fst bare);
    out_col_names = Array.of_list (List.map snd bare);
    expr_outs =
      outs_where (function
        | S.Scalar e -> A.is_template_expr e
        | S.Aggregate _ -> false);
    sum_outs = outs_where (function S.Aggregate (S.Sum _) -> true | _ -> false);
    count_out =
      List.find_map
        (fun (o : S.out_item) ->
          match o.S.def with
          | S.Aggregate S.Count_star -> Some o.S.name
          | _ -> None)
        a.A.spjg.S.out;
  }

let cols_to_strings (s : Col.Set.t) =
  Col.Set.fold (fun c acc -> Sset.add (Col.to_string c) acc) s Sset.empty

(* Range-constrained columns in trivial equivalence classes: the weak range
   condition key (section 4.2.5). *)
let reduced_range_ids (a : Mv_relalg.Analysis.t) =
  List.filter
    (Mv_relalg.Equiv.is_trivial a.Mv_relalg.Analysis.equiv)
    (Mv_relalg.Range.constrained_roots a.Mv_relalg.Analysis.ranges)

exception Rejected of string

(* [relaxed_nulls] enables the null-rejecting FK relaxation of section 3.2;
   it makes hub computation optimistic so the hub condition never prunes a
   view the relaxed matcher could use. *)
let create ?(relaxed_nulls = false) ?(row_count = 0) ?(indexes = []) schema
    ~name spjg : t =
  (match Mv_relalg.Spjg.check_indexable spjg with
  | Ok () -> ()
  | Error msg -> raise (Rejected (Fmt.str "view %s is not indexable: %s" name msg)));
  List.iter
    (fun ix ->
      List.iter
        (fun c ->
          if Mv_relalg.Spjg.find_out spjg c = None then
            raise
              (Rejected
                 (Fmt.str "index column %s is not an output of view %s" c name)))
        ix)
    indexes;
  let analysis = Mv_relalg.Analysis.analyze schema spjg in
  let module A = Mv_relalg.Analysis in
  let mode = if relaxed_nulls then `Optimistic else `Strict in
  let hub = Fk_graph.hub ~mode analysis in
  let akeys = analysis.A.keys in
  let union = List.fold_left Bitset.union Bitset.empty in
  let keys =
    {
      hub = Intern.of_sset Intern.tables hub;
      source_tables = akeys.A.source_tables;
      output_exprs = akeys.A.output_expr_templates;
      output_cols = union akeys.A.output_classes;
      residuals = akeys.A.residual_templates;
      range_cols = Bitset.of_list (reduced_range_ids analysis);
      grouping_exprs = akeys.A.grouping_expr_templates;
      grouping_cols = union akeys.A.grouping_classes;
      range_classes =
        List.map
          (Mv_relalg.Equiv.class_key analysis.A.equiv)
          (Mv_relalg.Range.constrained_roots analysis.A.ranges);
    }
  in
  {
    name;
    analysis;
    matching = matching_of schema analysis;
    hub;
    source_tables = analysis.A.table_set;
    keys;
    row_count;
    indexes;
    stale = Atomic.make false;
  }

let spjg t = t.analysis.Mv_relalg.Analysis.spjg

let is_stale t = Atomic.get t.stale

let mark_stale t = Atomic.set t.stale true

let mark_fresh t = Atomic.set t.stale false

let is_aggregate t = Mv_relalg.Spjg.is_aggregate (spjg t)

(* Output column of the view for column id [c], looked up through
   [equiv] (section 3.1.3): an output on [c] itself first, else the
   earliest output on any column of [c]'s class — the query's classes for
   range/residual/output routing, the view's own for compensating equality
   predicates. *)
let output_for_id t equiv c =
  let m = t.matching in
  let n = Array.length m.out_cols in
  let rec find p i =
    if i = n then None
    else if p m.out_cols.(i) then Some m.out_col_names.(i)
    else find p (i + 1)
  in
  match find (fun id -> id = c) 0 with
  | Some _ as hit -> hit
  | None -> find (fun id -> Mv_relalg.Equiv.same_id equiv id c) 0

(* ---- the key sets as columns and strings, for diagnostics and the
   reference filter of the tests ---- *)

let output_expr_templates t = Mv_relalg.Analysis.output_expr_templates t.analysis

let extended_output_cols t = Mv_relalg.Analysis.extended_output_cols t.analysis

let residual_templates t = Mv_relalg.Analysis.residual_templates t.analysis

let reduced_range_cols t =
  List.fold_left
    (fun acc c -> Sset.add (Col.to_string (Intern.col_of_id c)) acc)
    Sset.empty (reduced_range_ids t.analysis)

let range_classes t = Mv_relalg.Analysis.range_constrained_classes t.analysis

let grouping_expr_templates t =
  Mv_relalg.Analysis.grouping_expr_templates t.analysis

let extended_grouping_cols t =
  Mv_relalg.Analysis.extended_grouping_cols t.analysis

(* The view exposed as a table definition so substitutes can be parsed,
   executed and costed like any base table. Output columns are nullable
   unless they are bare references to non-null base columns. *)
let as_table_def schema t : Mv_catalog.Table_def.t =
  let sp = spjg t in
  let columns =
    List.map
      (fun (o : Mv_relalg.Spjg.out_item) ->
        match o.Mv_relalg.Spjg.def with
        | Mv_relalg.Spjg.Scalar (Expr.Col c) ->
            let cd = Mv_catalog.Schema.column_def_exn schema c in
            Mv_catalog.Column.make ~nullable:cd.Mv_catalog.Column.nullable
              o.Mv_relalg.Spjg.name cd.Mv_catalog.Column.dtype
        | Mv_relalg.Spjg.Scalar _ ->
            Mv_catalog.Column.make ~nullable:true o.Mv_relalg.Spjg.name
              Mv_base.Dtype.Float
        | Mv_relalg.Spjg.Aggregate Mv_relalg.Spjg.Count_star ->
            Mv_catalog.Column.make ~nullable:false o.Mv_relalg.Spjg.name
              Mv_base.Dtype.Int
        | Mv_relalg.Spjg.Aggregate _ ->
            Mv_catalog.Column.make ~nullable:true o.Mv_relalg.Spjg.name
              Mv_base.Dtype.Float)
      sp.Mv_relalg.Spjg.out
  in
  Mv_catalog.Table_def.make ~name:t.name ~columns ~primary_key:[] ()

let pp ppf t =
  Fmt.pf ppf "@[<v>view %s:@,%a@,hub: %a@]" t.name Mv_relalg.Spjg.pp (spjg t)
    Sset.pp t.hub
