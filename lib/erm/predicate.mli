(** Selection and join conditions over extended tuples, and their support
    evaluation F_SS (§3.1.1).

    Atomic predicates are the paper's two forms:
    - {e is-predicates} [A is {c1, …, cn}]: support is the belief interval
      [(Bel({c1…cn}), Pls({c1…cn}))] of the attribute's evidence set;
    - {e θ-predicates} [X θ Y] with [θ ∈ {=, ≠, <, ≤, >, ≥}] over evidence
      sets: [sn] sums the mass products of focal pairs for which θ holds
      for {e all} element pairs, [sp] those for which θ holds for {e some}
      element pair. ([≠] is an extension; the paper lists the other five.)

    Compound predicates combine atoms with [∧] using the multiplicative
    rule [(sn_S·sn_T, sp_S·sp_T)] under the paper's independence
    assumption. [∨] and [¬] are extensions with the support-logic
    semantics of {!Dst.Support.disjunction} / {!Dst.Support.negation}. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type operand =
  | Field of string  (** An attribute of the tuple (key or non-key). *)
  | Const of Etuple.cell  (** A literal value or evidence set. *)

type t =
  | Is of string * Dst.Vset.t
  | Theta of cmp * operand * operand
  | Theta_fe of cmp * operand * operand
      (** θ with ∀∃ "necessity" semantics: a focal pair counts toward
          [sn] when every element of the left set has {e some} compatible
          element on the right. The paper's formal definition is ∀∀ (the
          {!Theta} constructor), but its §3.1.1 worked example —
          [(\[{1,4}^0.6; {2,6}^0.4\] ≤ \[{2,4}^0.8; 5^0.2\]) = (0.6, 1)] —
          only follows under this ∀∃ reading (∀∀ yields [(0.12, 1)]).
          Both are provided; see EXPERIMENTS.md E11. *)
  | And of t * t
  | Or of t * t  (** Extension. *)
  | Not of t  (** Extension. *)
  | Const_true  (** Support [(1,1)]; identity of [∧]. *)

exception Predicate_error of string

val is_ : string -> Dst.Vset.t -> t
val is_values : string -> string list -> t
(** [is_values a atoms] is [Is (a, {atoms as string values})]. *)

val theta : cmp -> operand -> operand -> t
val theta_fe : cmp -> operand -> operand -> t
val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t
val not_ : t -> t

val paper_fragment : t -> bool
(** True iff the predicate uses only the constructs defined in the paper
    (is/θ atoms except [Ne], and conjunction). *)

val eval : Schema.t -> Etuple.t -> t -> Dst.Support.t
(** The selection support function F_SS: the degree to which the tuple
    satisfies the predicate, as a support pair.
    @raise Predicate_error on unknown attributes or kind mismatches.
    @raise Dst.Value.Type_mismatch when an ordered θ compares values of
    different kinds. *)

val eval_product : Schema.t -> Schema.t -> Etuple.t -> Etuple.t -> t -> Dst.Support.t
(** F_SS for join conditions: evaluates over the concatenation of a tuple
    from each operand without materializing the product tuple. Attribute
    names are resolved in the left schema first. *)

type compiled
(** A predicate resolved against its schema(s) once, before a scan:
    attribute names become tuple positions, and the constant of every
    [Is] atom on an evidential attribute is masked against the
    attribute's frame ({!Dst.Domain.mask}), so each tuple costs one
    {!Dst.Mass.S.bel_mask}/[pls_mask] pass and no set conversion.
    Unknown attributes still raise {!Predicate_error} when evaluated,
    as {!eval} does. *)

val compile : Schema.t -> t -> compiled
val compile_product : Schema.t -> Schema.t -> t -> compiled
(** For join conditions: names resolve in the left schema first. *)

val eval_compiled : compiled -> Etuple.t -> Dst.Support.t
(** {!eval} of a predicate from {!compile}; bit-identical results. *)

val eval_pair : compiled -> Etuple.t -> Etuple.t -> Dst.Support.t
(** {!eval_product} of a predicate from {!compile_product}. *)

val attrs_used : t -> string list
(** Attribute names referenced, without duplicates. *)

val cmp_to_string : cmp -> string

val pp : Format.formatter -> t -> unit
