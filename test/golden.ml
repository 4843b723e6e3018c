(** Golden matcher verdicts and optimizer plans over a fixed slice of the
    section 5 workload.

    Verdicts: every block the optimizer invokes the view-matching rule on
    ({!Mv_opt.Optimizer.enumerate_blocks}) is run against each of its
    filter-tree candidates. One line per query records the per-label
    reject counts, the match count and a digest of the substitutes:
    tables, outputs and group-by in order, WHERE conjuncts as a multiset.
    The committed file pins the verdicts of an earlier matcher, so a change
    to the section 3 tests that alters any answer names the query.

    Plans: one line per query and registry records the chosen plan's cost
    and rows in hex floats, the views it reads and a digest of the whole
    plan tree, so a change to the memo that picks another plan among cost
    ties, or orders a join's keys or post conjuncts differently, names the
    query. *)

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

(* The strict registry holds the section 5 definitions as generated; the
   relaxed one holds the same definitions under the null-rejecting FK
   relaxation with base-table backjoins enabled. *)
let registries () =
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
  (w, strict, relaxed)

(* Lines tagged [q] come from the optimizer's default rule configuration;
   lines tagged [r] from the relaxed registry, over the same definitions. *)
let verdict_lines () =
  let w, strict, relaxed = registries () in
  List.mapi (verdict_line strict w.H.schema "q") w.H.queries
  @ List.mapi (verdict_line relaxed w.H.schema "r") w.H.queries

(* The text a plan digest covers: every node with its estimates in hex
   floats, every leaf's block or substitute with its bindings, every
   join's keys and post conjuncts in order, and every aggregation's
   grouping and outputs. *)
let rec plan_text buf (p : Mv_opt.Plan.t) =
  let add = Buffer.add_string buf in
  let est rows cost = add (Printf.sprintf "(%h,%h)" rows cost) in
  match p with
  | Mv_opt.Plan.Leaf { source; binds; est_rows; est_cost } ->
      (match source with
      | Mv_opt.Plan.Computed b -> add ("scan " ^ Spjg.to_sql b)
      | Mv_opt.Plan.Via s ->
          add
            ("view " ^ s.Mv_core.Substitute.view.Mv_core.View.name ^ " "
           ^ Mv_core.Substitute.to_sql s));
      add " binds ";
      add
        (String.concat ","
           (List.map (fun (n, c) -> n ^ "=" ^ Mv_base.Col.to_string c) binds));
      est est_rows est_cost
  | Mv_opt.Plan.Join { left; right; keys; post; est_rows; est_cost } ->
      add "join keys ";
      add
        (String.concat ","
           (List.map
              (fun (a, b) ->
                Mv_base.Col.to_string a ^ "=" ^ Mv_base.Col.to_string b)
              keys));
      add " post ";
      add (String.concat " AND " (List.map Mv_base.Pred.to_string post));
      est est_rows est_cost;
      add " [";
      plan_text buf left;
      add "] [";
      plan_text buf right;
      add "]"
  | Mv_opt.Plan.Aggregate { input; group_by; out; est_rows; est_cost } ->
      add "aggregate by ";
      add (String.concat "," (List.map Mv_base.Expr.to_string group_by));
      add " out ";
      add
        (String.concat ","
           (List.map
              (fun (o : Spjg.out_item) ->
                o.Spjg.name ^ "=" ^ Spjg.out_def_to_string o.Spjg.def)
              out));
      est est_rows est_cost;
      add " [";
      plan_text buf input;
      add "]"

let plan_line registry stats tag i (q : Spjg.t) =
  let r = Mv_opt.Optimizer.optimize registry stats q in
  let buf = Buffer.create 1024 in
  plan_text buf r.Mv_opt.Optimizer.plan;
  let views =
    match Mv_opt.Plan.views_used r.Mv_opt.Optimizer.plan with
    | [] -> "-"
    | vs -> String.concat "," vs
  in
  Printf.sprintf "%s%03d cost=%h rows=%h views=%s plan=%s" tag i
    r.Mv_opt.Optimizer.cost r.Mv_opt.Optimizer.rows views
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Lines tagged [z] come from an empty registry, [q] from the strict one
   and [r] from the relaxed one. *)
let plan_lines () =
  let w, strict, relaxed = registries () in
  let empty = Mv_core.Registry.create w.H.schema in
  List.concat_map
    (fun (tag, registry) ->
      List.mapi (plan_line registry w.H.stats tag) w.H.queries)
    [ ("z", empty); ("q", strict); ("r", relaxed) ]
