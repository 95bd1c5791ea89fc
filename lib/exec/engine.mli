(** Sharded multi-source integration.

    {!integrate} is {!Integration.Multi.integrate} partitioned by key
    ({!Query.Shard}) and run through the deterministic task
    {!Query.Pool}: the report is identical to the unsharded one for
    every shard and worker count (test/test_conformance.ml). Queries do
    not come through here: {!Query.Physical.execute_measured} is the
    one physical executor and fans each operator out itself.

    [execute] and [reset_scan_cache] are one-line aliases and [install]
    a no-op, kept so that existing callers such as the benchmark ledger
    keep compiling. *)

val execute :
  Query.Physical.sharded ->
  ?ctx:Query.Physical.ctx ->
  Query.Eval.env ->
  Query.Physical.t ->
  Erm.Relation.t
(** [execute cfg ?ctx env plan] is
    [Query.Physical.execute ?ctx ~sharded:cfg env plan]. *)

val reset_scan_cache : unit -> unit
(** {!Query.Physical.reset_scan_cache}. *)

val install : unit -> unit
(** Does nothing: the physical executor needs no registration. *)

val integrate :
  Query.Physical.sharded ->
  ?policy:Dst.Rule.policy ->
  ?discount:bool ->
  ?alpha_floor:float ->
  ?prior:(string * float) list ->
  Integration.Multi.source list ->
  Integration.Multi.report
(** Sharded {!Integration.Multi.integrate}: the conflict matrix and
    per-source reliabilities are computed {e globally} (a per-shard
    matrix would change discount rates), sources are discounted whole,
    and only the per-key absorption folds are partitioned. The report —
    integrated relation, conflict list order, matrix, reliabilities —
    is identical to the unsharded one — for any combination rule:
    evidence cells combine under [?policy] (default {!Dst.Rule.current},
    which worker domains read but never write — set the session rule
    before integrating). Delegates to the unsharded path only when
    provenance recording is on or [shards ≤ 1]; metrics and tracing
    ride the pool's per-task buffers at full parallelism. *)
