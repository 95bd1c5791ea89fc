(** Query plans as printable trees with cardinality estimates.

    Estimation is structural and conservative — it never evaluates the
    query. A scan's bounds are the stored tuple count; a selection can
    keep anything from nothing to everything; union bounds add, product
    bounds multiply; [LIMIT k] caps both ends. The point is to show
    {e shape} (what the optimizer moved where) and {e blow-up risk}
    (products), not precise selectivities — evidential selectivity would
    need the very Bel/Pls evaluation the explainer avoids. *)

type node = {
  op : string;  (** e.g. ["scan"], ["select"], ["join"]. *)
  detail : string;  (** Relation name, predicate text, threshold, … *)
  rows_min : float;
  rows_max : float;
  children : node list;
}

val explain : Eval.env -> Ast.query -> node
(** @raise Eval.Eval_error on unknown relations (schemas must
    resolve). *)

val explain_optimized : Eval.env -> Ast.query -> node
(** {!explain} of [Plan.optimize]'s output — what will actually run. *)

val pp : Format.formatter -> node -> unit
(** An indented tree, one node per line:
    {v
    select [rating IS {ex}] rows=[0, 6]
      union rows=[6, 11]
        scan ra rows=[6, 6]
        scan rb rows=[5, 5]
    v} *)

val to_string : node -> string

(** {1 EXPLAIN ANALYZE}

    Unlike {!explain}, [analyze] {e does} evaluate: it plans the query
    with {!Physical.plan_optimized}, executes it, and returns the result
    together with the measured per-operator tree — actual cardinalities,
    closure/threshold pruning, index and union-memo traffic, and
    per-operator wall time (see {!Stats} for field semantics). *)

val analyze :
  ?ctx:Physical.ctx ->
  ?sharded:Physical.sharded ->
  Eval.env ->
  Ast.query ->
  Erm.Relation.t * Physical.report
(** Runs with the given fan-out ({!Physical.execute_measured}). Raises as
    {!Eval.eval} does. *)

val pp_report : Format.formatter -> Physical.report -> unit
(** An indented tree mirroring {!pp}, one measured operator per line:
    {v
    hash-join [rname = r_rname] rows=6/4 pruned=2 idx=3/6 t=0.2ms
      index-scan [ra.city = sf] rows=3/3 idx=1/1 t=40.0us
      seq-scan [rb] rows=5/5 t=12.0us
    v} *)

val report_to_string : Physical.report -> string
