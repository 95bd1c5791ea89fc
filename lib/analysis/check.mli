(** Static plan checker: abstract interpretation over {!Query.Ast}.

    [check] walks a query bottom-up, propagating an inferred schema and
    an {!Interval.t} over-approximating the membership support of any
    tuple the operator can emit. Against those two facts it reports the
    statically decidable violations of the paper's invariants:

    - unknown relations/attributes and θ-operand type mismatches that
      would raise at runtime (Q001–Q003, Q015);
    - predicates that are statically false — [IS] constant sets disjoint
      from the attribute's domain or kind, equalities across disjoint
      kinds or frames — which make the result empty under CWA_ER
      (Q004–Q005, Q010);
    - vacuous predicates whose constant set covers the whole domain
      (Q006);
    - membership thresholds unsatisfiable given the derived [(sn, sp)]
      bounds, including contradictory [AND]-ed bounds (Q007);
    - key-dropping projections that would force unsound merges (Q008);
    - products/joins whose θ-predicate can never yield definitely-true
      mass — the total-conflict combinations Zadeh's critique warns
      about (Q011);
    - union-incompatible or name-colliding operand schemas (Q012–Q013).

    The checker never evaluates the query and never raises on analysable
    input: every defect becomes a diagnostic. *)

type result = {
  schema : Erm.Schema.t option;
      (** [None] when inference failed (a diagnostic explains why). *)
  tm : Interval.t;
      (** Bounds on the membership support of any output tuple. *)
  empty : bool;
      (** The result is statically guaranteed to be the empty relation. *)
  diagnostics : Diagnostic.t list;
}

val analyze : Query.Eval.env -> Query.Ast.query -> result

val check : Query.Eval.env -> Query.Ast.query -> Diagnostic.t list
(** [analyze]'s diagnostics, sorted for reporting. *)

val check_string : ?file:string -> Query.Eval.env -> string -> Diagnostic.t list
(** Parses and checks; parse failures become a [Q000] error diagnostic
    rather than an exception. *)

val errors : Query.Eval.env -> Query.Ast.query -> string list
(** Error-level findings rendered as strings — what the shell's strict
    mode refuses a query with; empty when the plan is executable. *)
