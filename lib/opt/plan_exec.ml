(** Execution of optimizer plans against an in-memory database, for
    validating that every plan the optimizer emits (with or without views)
    computes the same relation as direct execution of the query.

    Leaves execute through [Mv_engine.Exec]; join and aggregate nodes run
    its hash join and grouping over [Exec.Bag]s, compiled against the
    columns each node binds, so a plan runs on the same operators and the
    same compiled form as direct execution. Per-node estimated-vs-actual
    row counts can be collected with {!execute_report}. *)

open Mv_base
module Spjg = Mv_relalg.Spjg
module Exec = Mv_engine.Exec

type node_report = {
  nr_label : string;
  nr_strategy : string;  (** "hash" | "cross" | "scan" | "view" | "aggregate" *)
  nr_est : float;
  nr_actual : int;
}

(* Views used by the plan must be materialized in [db] beforehand. *)
let rec run ?stats ?record db (plan : Plan.t) : Exec.Bag.t =
  let rerun p = run ?stats ?record db p in
  let report label strategy est (bag : Exec.Bag.t) =
    let actual = Exec.Bag.cardinality bag in
    Exec.observe_qerror ~est ~actual;
    match record with
    | Some f -> f { nr_label = label; nr_strategy = strategy; nr_est = est; nr_actual = actual }
    | None -> ()
  in
  match plan with
  | Plan.Leaf { source; binds; est_rows; _ } ->
      let rel =
        match source with
        | Plan.Computed b -> Exec.execute ?stats db b
        | Plan.Via s -> Exec.execute_substitute ?stats db s
      in
      let label, kind =
        match source with
        | Plan.Computed b ->
            ("Scan[" ^ String.concat "," b.Spjg.tables ^ "]", "scan")
        | Plan.Via s ->
            ( "ViewScan[" ^ s.Mv_core.Substitute.view.Mv_core.View.name ^ "]",
              "view" )
      in
      let bag =
        Exec.Bag.of_relation
          ~binds:
            (List.map
               (fun name ->
                 match List.assoc_opt name binds with
                 | Some c -> c
                 | None -> Col.make "#agg" name)
               rel.Mv_engine.Relation.cols)
          rel
      in
      report label kind est_rows bag;
      bag
  | Plan.Join { left; right; keys; post; est_rows; _ } ->
      let ls = rerun left and rs = rerun right in
      let out = Exec.Bag.join ~keys ~post ls rs in
      report
        ("Join on "
        ^ String.concat ", "
            (List.map
               (fun (a, b) -> Col.to_string a ^ "=" ^ Col.to_string b)
               keys))
        (if keys = [] then "cross" else "hash")
        est_rows out;
      out
  | Plan.Aggregate { input; group_by; out; est_rows; _ } ->
      let result =
        Exec.Bag.group ~by:group_by ~out
          ~binds:
            (List.map
               (fun (o : Spjg.out_item) -> Col.make "#out" o.Spjg.name)
               out)
          (rerun input)
      in
      report "GroupAggregate" "aggregate" est_rows result;
      result

(* Materialize every view the plan reads. *)
let prepare db (plan : Plan.t) =
  let rec views = function
    | Plan.Leaf { source = Plan.Via s; _ } -> [ s.Mv_core.Substitute.view ]
    | Plan.Leaf _ -> []
    | Plan.Join { left; right; _ } -> views left @ views right
    | Plan.Aggregate { input; _ } -> views input
  in
  List.iter
    (fun v ->
      if Mv_engine.Database.table db v.Mv_core.View.name = None then
        ignore (Exec.materialize db v))
    (views plan)

(* Produce the final relation with the query's output names: aggregation
   plans bind final outputs to #out, leaf-only plans bind computed outputs
   to #agg, and the rest evaluate over base columns. *)
let execute_common ?stats ?record db (query : Spjg.t) (plan : Plan.t) :
    Mv_engine.Relation.t =
  prepare db plan;
  let bag = run ?stats ?record db plan in
  let final (o : Spjg.out_item) =
    let out = Col.make "#out" o.Spjg.name and agg = Col.make "#agg" o.Spjg.name in
    if Exec.Bag.binds bag out then Expr.Col out
    else if Exec.Bag.binds bag agg then Expr.Col agg
    else
      match o.Spjg.def with
      | Spjg.Scalar e -> e
      | Spjg.Aggregate _ -> Expr.Col out (* unbound: raises per row *)
  in
  {
    Mv_engine.Relation.cols = Spjg.out_names query;
    rows = Exec.Bag.project (List.map final query.Spjg.out) bag;
  }

let execute ?adaptive:_ ?stats db query plan =
  execute_common ?stats db query plan

(* Same, collecting one report per plan node in post-order (children before
   parents) — the estimation-error table behind [mvopt explain --execute]
   and [bench --exec]. *)
let execute_report ?stats db query plan =
  let acc = ref [] in
  let rel =
    execute_common ?stats ~record:(fun r -> acc := r :: !acc) db query plan
  in
  (rel, List.rev !acc)
