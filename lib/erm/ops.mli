(** The extended relational operations of §3.

    Every operator preserves the closure property of §3.6: result tuples
    always have [sn > 0] (tuples whose derived membership loses all
    necessary support are dropped, which is exactly the CWA_ER reading of
    "not in the relation"). Boundedness follows from the membership
    derivations being monotone in [sn] — both are exercised by property
    tests in [test/test_properties.ml]. *)

exception Incompatible_schemas of string

val select :
  ?threshold:Threshold.t -> Predicate.t -> Relation.t -> Relation.t
(** Extended selection [σ̂^Q_P] (§3.1). For each tuple: evaluates the
    selection support [F_SS(r, P)], derives the new membership
    [F_TM(r.(sn,sp), F_SS(r,P))] — the original attribute values are
    retained (the paper departs from DeMichiel here, footnote 4) — and
    keeps the tuple iff the threshold [Q] holds and [sn > 0]. *)

val project : string list -> Relation.t -> Relation.t
(** Extended projection [π̂_Ã] (§3.3). The attribute list must include the
    key; membership is always retained.
    @raise Schema.Schema_error on invalid attribute lists. *)

val union :
  ?policy:Dst.Rule.policy -> Relation.t -> Relation.t -> Relation.t
(** Extended union [R ∪̂_K̃ S] (§3.2): tuples whose key appears in only
    one operand are retained unchanged (the other source is treated as
    wholly ignorant about them); key-matched tuples are merged by the
    combination rule of [policy] (default {!Dst.Rule.current}, itself
    Dempster unless the session says otherwise) applied to every
    non-key evidence attribute. Membership pairs always combine by
    boolean-frame Dempster ({!Dst.Support.combine}) — the rule policy
    governs attribute evidence, not tuple membership. Commutative; and
    associative for every rule except averaging (see {!Dst.Rule}).
    A pair whose combination is {e quarantined} by the policy's
    κ-escalation is silently dropped — use {!union_report} to observe
    which pairs and why.
    @raise Incompatible_schemas unless the operands are union-compatible.
    @raise Dst.Mass.F.Total_conflict when matched evidence is completely
    contradictory (κ = 1) under a rule that is undefined there — see
    {!union_report} for the non-raising variant used by the integration
    pipeline.
    @raise Etuple.Tuple_error when matched definite attributes disagree
    (the paper's consistent-sources assumption). *)

type conflict = {
  conflict_key : Dst.Value.t list;
  conflict_attr : string option;
      (** The attribute in total conflict; [None] when the membership
          evidence itself conflicts. *)
  conflict_detail : string;
}

val union_report :
  ?policy:Dst.Rule.policy ->
  Relation.t ->
  Relation.t ->
  Relation.t * conflict list
(** {!union} that, instead of raising on total conflict or definite
    disagreement, omits the offending pair from the result and reports it
    — the paper's "inform the data administrators" action (§2.2).
    κ-escalation quarantines are reported the same way, with a
    [conflict_detail] starting with ["quarantined:"] (test with
    {!is_quarantine}). *)

val is_quarantine : conflict -> bool
(** Did this conflict come from the policy's κ-escalation quarantining
    the cell (as opposed to total conflict or definite disagreement)? *)

val merge_report :
  ?policy:Dst.Rule.policy ->
  Schema.t ->
  record:(Dst.Value.t list -> string option -> string -> unit) ->
  Etuple.t ->
  Etuple.t ->
  Etuple.t option
(** The per-pair merge {!union_report} applies to key-matched tuples:
    combine every non-key cell under [policy] (default
    {!Dst.Rule.current}) and the membership frame by boolean Dempster;
    on total conflict, quarantine, or definite disagreement call
    [record key attr detail] and return [None] (the pair is dropped).
    Records lineage exactly as {!union_report} does. Exposed so the
    incremental store's O(changed entities) delta fold is bit-identical
    to a full {!union_report} rebuild. *)

val product : Relation.t -> Relation.t -> Relation.t
(** Extended cartesian product [R ×̂ S] (§3.4): tuple concatenation with
    membership combined by [F_TM].
    @raise Schema.Schema_error on attribute-name collisions. *)

val join :
  ?threshold:Threshold.t ->
  Predicate.t ->
  Relation.t ->
  Relation.t ->
  Relation.t
(** Extended join [R ⋈̂^Q_P S ≡ σ̂^Q_P (R ×̂ S)] (§3.5). Implemented
    without materializing the full product: the predicate and threshold
    are evaluated per tuple pair. *)

val join_indexed :
  ?threshold:Threshold.t ->
  ?residual:Predicate.t ->
  ?tally:(hit:bool -> matched:int -> kept:int -> unit) ->
  left_attr:string ->
  right_attr:string ->
  Relation.t ->
  Relation.t ->
  Relation.t
(** Hash equi-join on a pair of {e definite} attributes:
    [join_indexed ~left_attr:l ~right_attr:r ~residual:P a b] equals
    [join (Theta (Eq, Field l, Field r) ∧ P) a b] tuple-for-tuple,
    including the derived [(sn, sp)] pairs (property-tested in
    [test/test_plan_equiv.ml]). The right operand is bucketed by its
    join value — O(|A|·log|B| + matches) instead of O(|A|·|B|) — which
    is sound because a definite equality contributes crisp support:
    (1,1) inside a bucket, (0,0) (closure-dropped) outside. [residual]
    carries any remaining θ/IS conjuncts and is evaluated per surviving
    pair. [tally] is invoked once per probe (per left tuple) with
    whether the bucket existed, its size, and how many joined tuples
    passed the threshold — the planner's statistics hook.
    @raise Index.Not_definite if either join attribute is evidential.
    @raise Schema.Schema_error on attribute-name collisions. *)

val rename_attrs : (string -> string) -> Relation.t -> Relation.t
(** Attribute renaming (utility; the paper leaves product collisions to
    the reader). *)

val intersect_keys : Relation.t -> Relation.t -> Dst.Value.t list list
(** Keys present in both operands — the tuple-matching information of
    Figure 1 under the common-key assumption. *)

val pp_conflict : Format.formatter -> conflict -> unit

(** {1 Extensions beyond the paper}

    The paper defines σ̂, π̂, ∪̂, ×̂ and ⋈̂. Difference and intersection
    complete the set algebra under the same key-matching discipline and
    preserve closure/boundedness (property-tested alongside Theorem 1). *)

val difference : Relation.t -> Relation.t -> Relation.t
(** [difference r s]: tuples of [r] whose key does not appear in [s],
    unchanged. Membership evidence from [s] is not subtracted — under
    CWA_ER [s] carries no negative evidence about its absent keys, so
    removal by key is the only sound reading. Like every other operator
    it emits only [sn > 0] tuples, so closure and boundedness extend to
    it even over [_unchecked]-materialized inputs.
    @raise Incompatible_schemas unless union-compatible. *)

val intersection :
  ?policy:Dst.Rule.policy -> Relation.t -> Relation.t -> Relation.t
(** [intersection r s]: exactly the key-matched pairs of extended union,
    merged under [policy] (default {!Dst.Rule.current}); tuples present
    in only one source are dropped, as are quarantined pairs. The
    "both sources corroborate" reading of integration.
    @raise Incompatible_schemas / @raise Dst.Mass.F.Total_conflict /
    @raise Etuple.Tuple_error as for {!union}. *)
