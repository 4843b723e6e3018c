(** Golden matcher verdicts over a fixed slice of the section 5 workload.

    Every block the optimizer invokes the view-matching rule on
    ({!Mv_opt.Optimizer.enumerate_blocks}) is run against each of its
    filter-tree candidates. One line per query records the per-label
    reject counts, the match count and a digest of the substitutes:
    tables, outputs and group-by in order, WHERE conjuncts as a multiset.
    The committed file pins the verdicts of an earlier matcher, so a change
    to the section 3 tests that alters any answer names the query. *)

module A = Mv_relalg.Analysis
module H = Mv_experiments.Harness
module Spjg = Mv_relalg.Spjg

let nviews = 300

let nqueries = 100

let substitute_text (s : Mv_core.Substitute.t) =
  let b = s.Mv_core.Substitute.block in
  let outs =
    List.map
      (fun (o : Spjg.out_item) ->
        o.Spjg.name ^ "=" ^ Spjg.out_def_to_string o.Spjg.def)
      b.Spjg.out
  in
  let group_by =
    match b.Spjg.group_by with
    | None -> "-"
    | Some gs -> String.concat "," (List.map Mv_base.Expr.to_string gs)
  in
  let where =
    List.sort String.compare (List.map Mv_base.Pred.to_string b.Spjg.where)
  in
  String.concat "|"
    [
      String.concat "," b.Spjg.tables;
      String.concat "," outs;
      group_by;
      String.concat " AND " where;
    ]

let verdict_line registry schema tag i (q : Spjg.t) =
  let labels = Hashtbl.create 8 in
  let matched = ref 0 in
  let texts = Buffer.create 256 in
  List.iter
    (fun block ->
      let qa = A.analyze schema block in
      List.iter
        (fun v ->
          match
            Mv_core.Matcher.match_view
              ~relaxed_nulls:registry.Mv_core.Registry.relaxed_nulls
              ~backjoins:registry.Mv_core.Registry.backjoins ~query:qa v
          with
          | Ok s ->
              incr matched;
              Buffer.add_string texts (substitute_text s);
              Buffer.add_char texts '\n'
          | Error e ->
              let l = Mv_core.Reject.label e in
              Hashtbl.replace labels l
                (1 + Option.value ~default:0 (Hashtbl.find_opt labels l)))
        (Mv_core.Registry.candidates registry qa))
    (Mv_opt.Optimizer.enumerate_blocks q);
  let counts =
    Hashtbl.fold (fun l n acc -> Printf.sprintf "%s=%d" l n :: acc) labels []
    |> List.sort String.compare
  in
  String.concat " "
    ((Printf.sprintf "%s%03d matched=%d" tag i !matched :: counts)
    @ [ "digest=" ^ Digest.to_hex (Digest.string (Buffer.contents texts)) ])

(* Lines tagged [q] come from the optimizer's default rule configuration;
   lines tagged [r] from a registry with the null-rejecting FK relaxation
   and base-table backjoins enabled, over the same definitions. *)
let verdict_lines () =
  let w = H.make_workload ~nviews ~nqueries () in
  let strict = Mv_core.Registry.create w.H.schema in
  List.iter (Mv_core.Registry.add_prebuilt strict) w.H.views;
  let relaxed =
    Mv_core.Registry.create ~relaxed_nulls:true ~backjoins:true w.H.schema
  in
  List.iter
    (fun (v : Mv_core.View.t) ->
      Mv_core.Registry.add_prebuilt relaxed
        (Mv_core.View.create ~relaxed_nulls:true
           ~row_count:v.Mv_core.View.row_count w.H.schema
           ~name:v.Mv_core.View.name (Mv_core.View.spjg v)))
    w.H.views;
  List.mapi (verdict_line strict w.H.schema "q") w.H.queries
  @ List.mapi (verdict_line relaxed w.H.schema "r") w.H.queries
