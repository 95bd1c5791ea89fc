(** Physical query plans and the one physical executor.

    {!Plan} rewrites the logical tree algebraically; this module picks
    {e access paths} and {e join algorithms} for the rewritten tree and
    executes it with per-operator statistics ({!Stats}):

    - a [SELECT] directly over a stored relation whose predicate contains
      a definite-attribute equality conjunct ([a IS {v}] or [a = v])
      becomes an {e index probe} ({!Erm.Index}) followed by a residual
      selection — sound because a definite equality contributes crisp
      [(1,1)]/[(0,0)] support, so restricting the scan to the matching
      bucket is arithmetic-identical to the full scan;
    - a [JOIN] whose [ON] contains an equality between definite
      attributes of the two operands becomes a {e hash join}
      ({!Erm.Ops.join_indexed}) with the remaining conjuncts as a
      residual; θ-predicates over evidence sets keep the nested loop;
    - an extended union whose operands and rule policy the context has
      seen before is a memo lookup ({!ctx}).

    Every operator that can be partitioned runs as [shards] independent
    sub-evaluations over a content-addressed partition of its inputs
    ({!Shard}: key ranges, or join values for a hash join), through the
    deterministic task {!Pool}, folded back in shard order by
    {!Shard.merge} ({!Shard.merge_values} for a hash join). One shard is the same code with the
    partition [[|r|]], the body called inline and no merge. The result
    is bit-identical for every shard and worker count: the planner's
    fast paths are property-tested against the naive {!Eval} pipeline
    in [test/test_plan_equiv.ml], and the shard × worker grid in
    [test/test_conformance.ml]. *)

type access =
  | Seq_scan
  | Index_eq of { attr : string; value : Dst.Value.t }
      (** Probe an equality index on a definite attribute, then apply the
          residual predicate to the bucket. *)

type t =
  | Scan of {
      rel : string;
      access : access;
      residual : Ast.pred;
      threshold : Erm.Threshold.t;
      cols : string list option;
    }
  | Filter of {
      input : t;
      where : Ast.pred;
      threshold : Erm.Threshold.t;
      cols : string list option;
    }  (** Selection over a derived input (no index available). *)
  | Hash_join of {
      left : t;
      right : t;
      left_attr : string;
      right_attr : string;
      residual : Ast.pred;
      threshold : Erm.Threshold.t;
    }
  | Loop_join of {
      left : t;
      right : t;
      on : Ast.pred;
      threshold : Erm.Threshold.t;
    }
  | Product of t * t
  | Union of t * t
  | Intersect of t * t
  | Except of t * t
  | Rank of {
      input : t;
      by : Erm.Threshold.field;
      ascending : bool;
      limit : int option;
    }
  | Prefix of { input : t; prefix : string }

val plan : Eval.env -> Ast.query -> t
(** Pick access paths and join algorithms for the query as written (no
    algebraic rewriting). Probe/hash eligibility needs the relevant
    attribute to be {e definite} in the operand's schema.
    @raise Eval.Eval_error on unknown relations or invalid queries. *)

val plan_optimized : Eval.env -> Ast.query -> t
(** [plan env (Plan.optimize env q)] — the planner as run by the REPL. *)

val pp : Format.formatter -> t -> unit
(** Indented physical-plan tree, e.g.
    {v
    hash-join [rname = r_rname]
      index-scan [ra.city = sf]
      seq-scan [rb]
    v} *)

val to_string : t -> string

(** {1 Execution} *)

type ctx
(** Execution context: the union memo. It keeps the 16 most recent
    union results, keyed on {!Dst.Rule.policy_key} of the session
    policy and on the two operands, in order, by physical identity
    (through ephemerons, so it keeps no relation alive). Reusing a
    context across queries, as the REPL does, makes a repeated union of
    the same relations under the same policy one lookup, whose result
    is the one derived before: bits never depend on the session's
    history. While provenance records, only results derived into the
    current arena ({!Obs.Provenance.generation}) are served; otherwise
    the union is derived again. One context per calling domain. *)

val create_ctx : unit -> ctx

type sharded = {
  shards : int;  (** Partitions per operator (≥ 1). *)
  domains : int;  (** Worker budget for {!Pool} (≥ 1). *)
}
(** How far each operator fans out. The executors default to
    [{shards = 1; domains = 1}]. *)

val reset_scan_cache : unit -> unit
(** Drop every cached base-relation partition and index. Probes and
    sharded scans keep them process-wide, keyed by (relation name,
    shard count), and reuse an entry only while the name binds the
    {e physically identical} relation value — relations are immutable,
    so a rebound name, an {!Erm.Relation.replace}-style update or a
    store commit can never be served stale results (exercised in
    [test/test_index.ml] and [test/test_exec.ml]). The cache outlives
    contexts; this is for harnesses that compare cold-start
    [exec.index.build] / [exec.index.reuse] counts across runs. *)

type report = {
  r_op : string;  (** Operator name as printed by {!pp}. *)
  r_detail : string;
  r_stats : Stats.t;
  r_children : report list;
}
(** Measured execution tree — one node per physical operator. *)

val execute_measured :
  ?ctx:ctx -> ?sharded:sharded -> Eval.env -> t -> Erm.Relation.t * report
(** Run the plan, collecting per-operator statistics. Wall times exclude
    children; input cardinalities are measured, not estimated. The
    report tree's shape, details and row counts do not depend on
    [sharded] (which counters are summed per shard: see {!Stats}).

    Memo: each union node looks the context up once, before any
    fan-out, counting [union_memo.hit] or [.miss]; a miss fans out
    plain {!Erm.Ops.union} and stores the merged result unless it
    raises. A bare scan runs no fan-out: it is its bound relation, less
    any [sn = 0] tuples.

    Telemetry: every operator emits a [query.physical] span and
    [physical.<op>.*] metrics. Only a real fan-out ([shards > 1]) adds
    [exec.<op>] spans, the [exec.shards], [exec.workers],
    [exec.shard.rows], [exec.merge.ns] and [exec.index.*] metrics and
    [Shard_spawn] / [Shard_merge] flight-recorder events; the pool
    forks and merges telemetry per shard, so recordings are
    byte-identical at every worker count. Provenance recording forces
    one shard: lineage ids are allocation-ordered.

    Raises as {!Eval.eval} does ({!Eval.Eval_error}, evidence
    conflicts); when several shards fail, the lowest-numbered shard's
    exception wins. *)

val execute :
  ?ctx:ctx -> ?sharded:sharded -> Eval.env -> t -> Erm.Relation.t

exception Rejected of string list
(** Raised before execution when a [guard] reports findings. *)

val eval_fast :
  ?ctx:ctx ->
  ?guard:(Eval.env -> Ast.query -> string list) ->
  ?sharded:sharded ->
  Eval.env ->
  Ast.query ->
  Erm.Relation.t
(** [execute ctx env (plan_optimized env q)]. Relation-equal to
    {!Eval.eval} on every valid query (property-tested).

    [guard] runs a pre-execution admission check on the {e logical}
    query; a non-empty result aborts with {!Rejected} before planning.
    The static analyzer's [Analysis.Check.errors] is the intended guard
    (the dependency points analyzer → query, hence the callback). *)

val run :
  ?ctx:ctx ->
  ?guard:(Eval.env -> Ast.query -> string list) ->
  ?sharded:sharded ->
  Eval.env ->
  string ->
  Erm.Relation.t
(** Parse, plan, execute. The physical counterpart of {!Eval.run}.
    @raise Rejected when [guard] reports findings. *)
