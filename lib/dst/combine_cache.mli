(** Memoized evidence combination, keyed by rule policy (extension).

    Integration workloads combine the same evidence pairs over and over:
    the Figure-1 pipeline re-merges identical survey-derived mass
    functions for every query over the integrated view, and repeated
    extended unions of the same sources recompute every cell merge. This
    cache keys on the {e pair} of operand mass functions (canonically
    ordered — every supported rule is commutative) {e together with} the
    {!Rule.policy} in force, and stores the full {!Mass.S.outcome}
    (combined result, quarantine, or total conflict), so a cached replay
    is indistinguishable from a fresh combination.

    Because {!Rule.policy_key} is part of the key, entries computed
    under one rule or κ-threshold are never served to a request made
    under another — switching the session rule mid-run is always safe
    with a warm cache.

    Entries live in a hash table: a lookup hashes the pair with
    {!Mass.S.hash} (frame size, focal masks and masses — never the
    frame's name) and confirms a match with {!Mass.S.compare}, so a hit
    costs one hash and two comparisons whatever the cache's size.
    Operands within float tolerance of each other but not bit-equal
    occupy separate entries — a duplicate entry costs memory, never
    correctness. The policy's key string is formatted once per policy
    value, not per lookup: the cache remembers the last policy it saw.

    The cache is mutable and unsynchronized; share one per evaluation
    context, not across domains. *)

type t

val create : unit -> t
(** An empty cache. A miss runs {!Mass.F.combine_policy}. *)

val combine_policy :
  ?policy:Rule.policy -> t -> Mass.F.t -> Mass.F.t -> Mass.F.outcome
(** Memoized {!Mass.F.combine_policy} under [policy] (default
    {!Rule.current}). On a hit with provenance recording on, the stored
    outcome's lineage is re-registered via {!Mass.F.relink} so a warm
    replay yields the same derivation a cold run would — no rule is
    ever re-executed. *)

val combine_policy_exn :
  ?policy:Rule.policy -> t -> Mass.F.t -> Mass.F.t -> Mass.F.t
(** Like {!combine_policy} but unwrapped.
    @raise Mass.F.Total_conflict on a [Conflicted] outcome.
    @raise Mass.F.Quarantined_cell on a [Quarantined] outcome. *)

val combine_opt : t -> Mass.F.t -> Mass.F.t -> (Mass.F.t * float) option
(** Memoized {!Mass.F.combine_opt} — plain Dempster, regardless of the
    session rule: [Some (m, kappa)] or [None] on total conflict. *)

val combine : t -> Mass.F.t -> Mass.F.t -> Mass.F.t
(** Memoized {!Mass.F.combine}. @raise Mass.F.Total_conflict as the
    uncached rule does (the verdict itself is cached). *)

val hits : t -> int
val misses : t -> int

val size : t -> int
(** Number of distinct (policy, operand pair) entries stored. *)
