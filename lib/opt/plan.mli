(** Optimizer plans. Intermediate results are bags of bindings keyed by
    base-table columns; leaves execute SPJG blocks (computed from base
    tables or read from a view via a substitute) and rebind their outputs. *)

open Mv_base
module Spjg = Mv_relalg.Spjg

type source = Computed of Spjg.t | Via of Mv_core.Substitute.t

type t =
  | Leaf of {
      source : source;
      binds : (string * Col.t) list;
          (** output name -> binding key for upper operators *)
      est_rows : float;
      est_cost : float;
    }
  | Join of {
      left : t;
      right : t;
      keys : (Col.t * Col.t) list;
      post : Pred.t list;
      est_rows : float;
      est_cost : float;
    }
  | Aggregate of {
      input : t;
      group_by : Expr.t list;
      out : Spjg.out_item list;
      est_rows : float;
      est_cost : float;
    }

val est_rows : t -> float

val est_cost : t -> float

val uses_view : t -> bool

val views_used : t -> string list

val pp : ?indent:int -> Format.formatter -> t -> unit

val to_string : t -> string
