(** Evaluation of scalar expressions and predicates against an environment
    mapping column references to values. *)

exception Eval_error of string

val arith : Expr.binop -> Value.t -> Value.t -> Value.t
(** NULL-propagating arithmetic; integer division truncates; division by
    zero yields NULL; Date +/- Int shifts by days.
    @raise Eval_error on type errors. *)

val expr : (Col.t -> Value.t) -> Expr.t -> Value.t

val func : string -> Value.t list -> Value.t
(** Built-in scalar functions: substring, upper, lower, abs. *)

val cmp3_truth : Pred.cmp -> Value.t -> Value.t -> Pred.truth

val pred : (Col.t -> Value.t) -> Pred.t -> Pred.truth
(** Full three-valued evaluation. *)

val pred_holds : (Col.t -> Value.t) -> Pred.t -> bool
(** WHERE-clause semantics: [true] iff the predicate evaluates to True. *)

(** {2 Slot compilation}

    Expressions and predicates compiled once against a layout that places
    columns at slots of a [Value.t array] tuple: the executor's form. A
    compiled closure returns what {!expr}/{!pred} return over the
    environment reading those slots, through the same arithmetic,
    comparison, function and LIKE code. A column the layout does not place
    raises [Eval_error] when the closure reads it, as an unbound column
    does for the interpreter. *)

val compile_expr : (Col.t -> int option) -> Expr.t -> Value.t array -> Value.t

val compile_pred :
  (Col.t -> int option) -> Pred.t -> Value.t array -> Pred.truth

val compile_holds : (Col.t -> int option) -> Pred.t -> Value.t array -> bool
(** WHERE-clause semantics of {!compile_pred}. *)
