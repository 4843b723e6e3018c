(** Execution of optimizer plans against an in-memory database — the test
    bridge proving every emitted plan computes the query's relation, and
    the runtime behind [bench --exec]. Leaves run through
    {!Mv_engine.Exec}, join nodes through its hash join and aggregate
    nodes through its grouping. *)

type node_report = {
  nr_label : string;  (** e.g. ["ViewScan[v12]"], ["Join on a.x=b.y"] *)
  nr_strategy : string;
      (** ["hash"] for joins on keys, ["cross"] for joins without;
          ["scan"] / ["view"] / ["aggregate"] for the other nodes *)
  nr_est : float;  (** optimizer's estimated output rows *)
  nr_actual : int;  (** rows actually produced *)
}

val prepare : Mv_engine.Database.t -> Plan.t -> unit
(** Materialize every view the plan reads (idempotent). *)

val execute :
  ?adaptive:bool ->
  ?stats:Mv_catalog.Stats.t ->
  Mv_engine.Database.t ->
  Mv_relalg.Spjg.t ->
  Plan.t ->
  Mv_engine.Relation.t
(** Run the plan (materializing views first) and produce the final
    relation with the query's output names. [stats] is forwarded to
    {!Mv_engine.Exec} for leaf blocks. [adaptive] is ignored: it remains
    only because the exec-mixed workload of [perfbench/bench.ml] passes
    [~adaptive:true]. *)

val execute_report :
  ?stats:Mv_catalog.Stats.t ->
  Mv_engine.Database.t ->
  Mv_relalg.Spjg.t ->
  Plan.t ->
  Mv_engine.Relation.t * node_report list
(** Same, also collecting one estimated-vs-actual report per plan node in
    post-order (children before parents). Every report feeds the
    [exec.estimation.qerror] histogram. *)
