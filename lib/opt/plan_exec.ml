(** Execution of optimizer plans against an in-memory database, for
    validating that every plan the optimizer emits (with or without views)
    computes the same relation as direct execution of the query.

    Join nodes honor the strategy the optimizer recorded at plan time
    (hash or nested loop; [~force_hash:true] overrides to always-hash for
    A/B runs — the strategy never changes the result bag). Leaves execute
    through [Mv_engine.Exec], optionally in adaptive mode. Per-node
    estimated-vs-actual row counts can be collected with
    {!execute_report}. *)

open Mv_base
module Spjg = Mv_relalg.Spjg

type bindings = Value.t Col.Map.t

type node_report = {
  nr_label : string;
  nr_strategy : string;  (** "hash" | "nlj" | "scan" | "view" | "aggregate" *)
  nr_est : float;
  nr_actual : int;
}

let env_of (b : bindings) (c : Col.t) =
  match Col.Map.find_opt c b with
  | Some v -> v
  | None -> raise (Eval.Eval_error ("unbound column " ^ Col.to_string c))

(* Views used by the plan must be materialized in [db] beforehand. *)
let rec run ?(force_hash = false) ?adaptive ?stats ?record db (plan : Plan.t) :
    bindings list =
  let rerun p = run ~force_hash ?adaptive ?stats ?record db p in
  let report label strategy est actual =
    Mv_engine.Exec.observe_qerror ~est ~actual;
    match record with
    | Some f -> f { nr_label = label; nr_strategy = strategy; nr_est = est; nr_actual = actual }
    | None -> ()
  in
  match plan with
  | Plan.Leaf { source; binds; est_rows; _ } ->
      let rel =
        match source with
        | Plan.Computed b -> Mv_engine.Exec.execute ?adaptive ?stats db b
        | Plan.Via s -> Mv_engine.Exec.execute_substitute ?adaptive ?stats db s
      in
      let label, kind =
        match source with
        | Plan.Computed b ->
            ("Scan[" ^ String.concat "," b.Spjg.tables ^ "]", "scan")
        | Plan.Via s ->
            ( "ViewScan[" ^ s.Mv_core.Substitute.view.Mv_core.View.name ^ "]",
              "view" )
      in
      report label kind est_rows (List.length rel.Mv_engine.Relation.rows);
      let keys =
        List.map
          (fun name ->
            match List.assoc_opt name binds with
            | Some c -> c
            | None -> Col.make "#agg" name)
          rel.Mv_engine.Relation.cols
      in
      List.map
        (fun row ->
          List.fold_left2
            (fun acc c v -> Col.Map.add c v acc)
            Col.Map.empty keys (Array.to_list row))
        rel.Mv_engine.Relation.rows
  | Plan.Join { left; right; keys; post; strategy; est_rows; _ } ->
      let ls = rerun left and rs = rerun right in
      let merge l r = Col.Map.union (fun _ x _ -> Some x) l r in
      let key side b =
        Array.of_list (List.map (fun k -> env_of b (side k)) keys)
      in
      let has_null = Array.exists Value.is_null in
      let strategy = if force_hash then Plan.Hash else strategy in
      let joined =
        if keys = [] then
          List.concat_map (fun l -> List.map (merge l) rs) ls
        else begin
          Mv_engine.Exec.count_strategy (Plan.strategy_name strategy);
          match strategy with
          | Plan.Hash ->
              let build = Value.Key.create 256 in
              List.iter
                (fun r ->
                  let kv = key snd r in
                  if not (has_null kv) then Value.Key.add build kv r)
                rs;
              List.concat_map
                (fun l ->
                  let kv = key fst l in
                  if has_null kv then []
                  else List.map (merge l) (Value.Key.find_all build kv))
                ls
          | Plan.Nlj ->
              (* same key equality and NULL semantics as the hash path, so
                 the bag is identical *)
              let srcs =
                List.filter_map
                  (fun r ->
                    let kv = key snd r in
                    if has_null kv then None else Some (kv, r))
                  rs
              in
              List.concat_map
                (fun l ->
                  let k = key fst l in
                  if has_null k then []
                  else
                    List.filter_map
                      (fun (rk, r) ->
                        if Array.for_all2 Value.equal rk k then Some (merge l r)
                        else None)
                      srcs)
                ls
        end
      in
      let out =
        List.filter
          (fun b -> List.for_all (Eval.pred_holds (env_of b)) post)
          joined
      in
      report
        ("Join on "
        ^ String.concat ", "
            (List.map
               (fun (a, b) -> Col.to_string a ^ "=" ^ Col.to_string b)
               keys))
        (Plan.strategy_name strategy)
        est_rows (List.length out);
      out
  | Plan.Aggregate { input; group_by; out; est_rows; _ } ->
      let rows = rerun input in
      let groups = Value.Key.create 64 in
      let order = ref [] in
      List.iter
        (fun b ->
          let k =
            Array.of_list (List.map (fun g -> Eval.expr (env_of b) g) group_by)
          in
          match Value.Key.find_opt groups k with
          | Some gr -> Value.Key.replace groups k (b :: gr)
          | None ->
              order := k :: !order;
              Value.Key.add groups k [ b ])
        rows;
      let keys =
        if rows = [] && group_by = [] then [ `Empty ]
        else List.rev_map (fun k -> `Group k) !order
      in
      let result =
        List.map
          (fun key ->
            let grp =
              match key with `Empty -> [] | `Group k -> Value.Key.find groups k
            in
            let witness = match grp with b :: _ -> Some b | [] -> None in
            List.fold_left
              (fun acc (o : Spjg.out_item) ->
                let v =
                  match (o.Spjg.def, witness) with
                  | Spjg.Scalar e, Some b -> Eval.expr (env_of b) e
                  | Spjg.Scalar _, None -> Value.Null
                  | Spjg.Aggregate a, _ -> Mv_engine.Exec.eval_agg grp a
                in
                Col.Map.add (Col.make "#out" o.Spjg.name) v acc)
              Col.Map.empty out)
          keys
      in
      report "GroupAggregate" "aggregate" est_rows (List.length result);
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
        ignore (Mv_engine.Exec.materialize db v))
    (views plan)

(* Produce the final relation with the query's output names. *)
let execute_common ?force_hash ?adaptive ?stats ?record db (query : Spjg.t)
    (plan : Plan.t) : Mv_engine.Relation.t =
  prepare db plan;
  let cols = Spjg.out_names query in
  let rows = run ?force_hash ?adaptive ?stats ?record db plan in
  let final b (o : Spjg.out_item) : Value.t =
    (* aggregation plans bind final outputs to #out; leaf-only plans bind
       computed outputs to #agg; otherwise evaluate over base columns *)
    match Col.Map.find_opt (Col.make "#out" o.Spjg.name) b with
    | Some v -> v
    | None -> (
        match Col.Map.find_opt (Col.make "#agg" o.Spjg.name) b with
        | Some v -> v
        | None -> (
            match o.Spjg.def with
            | Spjg.Scalar e -> Eval.expr (env_of b) e
            | Spjg.Aggregate _ ->
                raise (Eval.Eval_error "unbound aggregate output")))
  in
  {
    Mv_engine.Relation.cols;
    rows = List.map (fun b -> Array.of_list (List.map (final b) query.Spjg.out)) rows;
  }

let execute ?force_hash ?adaptive ?stats db query plan =
  execute_common ?force_hash ?adaptive ?stats db query plan

(* Same, collecting one report per plan node in post-order (children before
   parents) — the estimation-error table behind [mvopt explain --execute]
   and [bench --exec]. *)
let execute_report ?force_hash ?adaptive ?stats db query plan =
  let acc = ref [] in
  let rel =
    execute_common ?force_hash ?adaptive ?stats
      ~record:(fun r -> acc := r :: !acc)
      db query plan
  in
  (rel, List.rev !acc)
