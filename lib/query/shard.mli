(** Deterministic relation partitioning for fanned-out execution.

    A partition depends only on tuple {e content}, never on insertion
    order, worker count or hash-table seeds. Two partitioning schemes
    cover every operator:

    - {b key ranges} ({!by_key}, {!by_keys}, {!cut}): the relation is
      already a key-ordered map, so [shards − 1] pivot keys cut it into
      ascending key ranges in O(shards · log n), with no per-tuple
      routing and no shard rebuilt. Scans, selections, set operations,
      the left side of non-equi joins and [Integration.Multi]'s
      absorption folds partition this way. Every operand of one fan-out
      is cut at the same pivots, so a key bound in several operands
      lands at the same shard index, and each shard's output keeps to
      its range: {!merge} concatenates the outputs in shard order, which
      is key order.
    - {b join values} ({!by_value}): an MD5 digest of one definite
      attribute's value routes each tuple — both sides of an equi-join,
      so matching tuples land in the same shard. A key-ordered map
      cannot group equal join values, so the outputs interleave in key
      order and {!merge_values} unions them.

    Every partition is a disjoint cover: each input tuple appears in
    exactly one output shard, and each shard is a valid relation under
    the input's schema. *)

val pivots : shards:int -> Erm.Relation.t list -> Dst.Value.t list array
(** The ascending cut keys shared by the operands of one fan-out: the
    [shards − 1] key quantiles of the largest relation in the list (the
    first one on a tie). Pivot [i] (from 1) is that relation's key at
    rank ⌊i·n/shards⌋, so its own shards differ in size by at most one;
    with fewer tuples than shards, pivots repeat and some shards are
    empty. [[||]] when [shards ≤ 1] or every relation is empty. Finding
    the largest relation and its quantiles walks the maps, O(n), but
    allocates only the pivots. *)

val cut :
  shards:int -> Dst.Value.t list array -> Erm.Relation.t -> Erm.Relation.t array
(** [cut ~shards pivots r] splits [r] into [shards] key ranges: shard
    [i] holds the keys in \[pivot{_ i−1}, pivot{_ i}), the first shard
    everything below the first pivot and the last everything from the
    last pivot on. Shards past [Array.length pivots] are empty. [pivots]
    must ascend and number fewer than [shards]; {!pivots} returns such
    an array. [[| r |]] when [shards ≤ 1]. *)

val by_key : shards:int -> Erm.Relation.t -> Erm.Relation.t array
(** [cut] at [r]'s own {!pivots}: [shards] balanced key ranges. *)

val by_keys :
  shards:int ->
  Erm.Relation.t ->
  Erm.Relation.t ->
  Erm.Relation.t array * Erm.Relation.t array
(** Both operands of a binary operator, cut at the {!pivots} of the
    larger one (the left one on a tie). *)

val by_value :
  shards:int -> attr:string -> Erm.Relation.t -> Erm.Relation.t array
(** Partition by the definite value [v] of [attr]: the first four bytes
    of the MD5 digest of [Dst.Value.to_string v], as a big-endian int,
    mod [shards] pick the tuple's shard.
    @raise Invalid_argument via {!Erm.Etuple.definite_value} if [attr]
    is missing or evidential. *)

val merge : Erm.Relation.t array -> Erm.Relation.t
(** The merge of key-range shards: the ordered concatenation
    ({!Erm.Relation.append}) of a non-empty array of range-disjoint
    shards, in array order, under the first shard's schema, recording
    the time taken in the [exec.merge.ns] histogram.
    @raise Erm.Relation.Duplicate_key if two shards overlap or a shard's
    keys do not all sort above the previous non-empty shard's. *)

val merge_values : Erm.Relation.t array -> Erm.Relation.t
(** The merge of {!by_value} shards: the structural union
    ({!Erm.Relation.disjoint_union}) of a non-empty array of shards with
    disjoint, interleaved keys, under the first shard's schema, recorded
    like {!merge}.
    @raise Erm.Relation.Duplicate_key if two shards share a key. *)
