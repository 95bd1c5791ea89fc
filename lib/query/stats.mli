(** Per-operator execution statistics.

    Every physical operator ({!Physical}) fills one of these while it
    runs; {!Explain.analyze} surfaces the tree. Field meanings:

    - [rows_in] — tuples the operator actually examined: full input
      cardinality for scans and set operators, the probed bucket size
      for an index probe, build + probe cardinalities for a hash join.
    - [rows_out] — result cardinality.
    - [pruned] — candidate tuples dropped by the closure rule ([sn = 0])
      or the membership threshold. [rows_in − rows_out] for unary
      operators; for joins it counts {e matched pairs} that failed, so
      pairs never formed by the hash path are invisible here (that is
      the point of the fast path).
    - [index_hits]/[index_misses] — probes that found / did not find a
      bucket, for index scans (one probe per query) and hash joins (one
      probe per left tuple).
    - [cache_hits]/[cache_misses] — the union's lookup in the
      context's union memo ({!Physical.ctx}): one hit or one miss per
      union node, [0] for every other operator.
    - [wall_ns] — wall-clock time spent in this operator, {e excluding}
      its children (partitioning, fan-out and merge included).

    When an operator fans out over several shards, each shard returns
    its own tallies and the executor sums them after the barrier, so
    only the calling domain writes these fields. Summed per shard:
    an index probe's bucket size ([rows_in], still counted as one
    probe), a hash join's [index_hits]/[index_misses] and [pruned]. All
    of these equal the one-shard values. A union looks the memo up
    once, before any fan-out, so its cache counters do not depend on
    the shard count either. Every other field is computed from whole
    relations. *)

type t = {
  mutable rows_in : int;
  mutable rows_out : int;
  mutable pruned : int;
  mutable index_hits : int;
  mutable index_misses : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable wall_ns : float;
}

val create : unit -> t

val publish : op:string -> t -> unit
(** Fold the counters into {!Obs.Metrics.default} under
    [physical.<op>.calls/.rows_in/.rows_out/.pruned] counters and a
    [physical.<op>.wall_ns] histogram. A no-op while the default
    registry is disabled. *)

val pp : Format.formatter -> t -> unit
(** Compact one-line form, e.g.
    [rows=60/25 pruned=35 idx=8/10 memo=12/14 t=0.3ms]. Zero-valued
    index/cache counters are omitted. *)

val to_string : t -> string
