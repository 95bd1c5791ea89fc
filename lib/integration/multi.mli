(** N-source integration (extension).

    The paper integrates two databases; Dempster's rule is associative
    and commutative, so any number of sources fold into one integrated
    relation with an order-independent result. This module also computes
    the pairwise conflict matrix — which sources disagree with which —
    and can discount each source by its own estimated reliability (mean
    conflict against all peers) before merging, generalizing
    {!Reliability.merge_discounted}. *)

type source = { source_name : string; source_relation : Erm.Relation.t }

type report = {
  integrated : Erm.Relation.t;
  conflicts : (string * Erm.Ops.conflict) list;
      (** Conflicts with the name of the source whose absorption raised
          them. *)
  conflict_matrix : (string * string * float) list;
      (** Mean pairwise κ for every unordered source pair, from
          {!Reliability.assess}. *)
  reliabilities : (string * float) list;
      (** Per-source discount rate (1 when merging undiscounted). *)
}

exception No_sources

val integrate :
  ?policy:Dst.Rule.policy ->
  ?discount:bool ->
  ?alpha_floor:float ->
  ?prior:(string * float) list ->
  ?sharded:Query.Physical.sharded ->
  source list ->
  report
(** Fold all sources into one relation (left to right; with the default
    Dempster rule the result is order-independent up to float rounding
    because ⊕ is associative — averaging is {e not} associative, so
    under [--rule averaging] the fold order is part of the semantics).
    Evidence cells combine under [?policy] (default
    {!Dst.Rule.current}); κ-escalation quarantines surface in
    [conflicts] like total conflicts do.
    With [~discount:true] (default false), each source is first
    α-discounted by [1 − (mean κ against the other sources)].

    [?prior] (default all 1) supplies an external per-source discount —
    the federation runtime passes the reliability it inferred from
    delivery behaviour (retries, staleness) — which multiplies into the
    conflict-based rate. [?alpha_floor] (default 0) clamps every final α
    from below; any floor > 0 preserves Theorem-1 closure even for
    totally conflicting sources, where the conflict-based rate alone
    would reach α = 0 and discount every tuple to [sn = 0]. The
    defaults leave historical behaviour bit-for-bit unchanged.

    [?sharded] (default one shard, one domain) partitions the
    absorption folds by key ({!Query.Shard.by_key}) and runs them
    through {!Query.Pool}, as {!Query.Physical.execute} does for
    operators. The conflict matrix and reliabilities stay global and
    sources are discounted whole, so the report — relation, conflict
    order, matrix, reliabilities — is identical at every shard and
    worker count, under any rule (test/test_conformance.ml). Worker
    domains read {!Dst.Rule.current} but never write it. Provenance
    recording forces one shard; [Shard_spawn]/[Shard_merge] journal
    events are recorded only for two or more shards.
    @raise No_sources on the empty list.
    @raise Invalid_argument if a prior or the floor is outside [0,1].
    @raise Erm.Ops.Incompatible_schemas if any source's schema differs. *)

type change =
  | Changed of Erm.Etuple.t
      (** New key, or a key-matched pair whose Dempster merge survives. *)
  | Dropped of Erm.Etuple.t
      (** The previously stored tuple of a pair {!integrate} would omit:
          total conflict, definite disagreement, or a merged membership
          with [sn = 0]. *)

val absorb_delta :
  ?policy:Dst.Rule.policy ->
  into:Erm.Relation.t ->
  source ->
  Erm.Relation.t * Erm.Ops.conflict list * change list
(** [absorb_delta ~into s] folds one (undiscounted) source into an
    existing merged relation in O(changed entities): only the keys of
    [s] are visited. A tuple of [s] with [sn = 0] and a new key is
    skipped, as {!integrate} drops it. Because the per-key merge is
    {!Erm.Ops.merge_report} — exactly what {!integrate}'s absorption
    step applies — the result is bit-identical
    ([Float.equal] supports) to
    [integrate ~discount:false (sources @ [s])] when [into] was built
    by [integrate ~discount:false sources]. Registers [s] as a
    provenance source, records one [Step] node and the per-source κ
    histogram exactly as {!integrate} does. The change list (in
    ascending key order of [s]) is the persistent store's write set.
    @raise Erm.Ops.Incompatible_schemas when the schemas differ. *)

val pp : Format.formatter -> report -> unit
