(** Deterministic relation partitioning for fanned-out execution.

    Tuples route to shards by an MD5 digest of a canonical string — the
    same [Digest.string] the provenance arena already uses for value
    identity — so a partition depends only on tuple {e content}, never
    on insertion order, worker count or hash-table seeds. Two
    partitioning keys cover every operator:

    - {!by_key}: the tuple's primary-key rendering
      ({!Erm.Lineage.key_string}) — scans, selections, set operations
      and the left side of non-equi joins;
    - {!by_value}: the rendering of one definite attribute's value —
      both sides of an equi-join, so matching tuples land in the same
      shard.

    Every partition is a disjoint cover: each input tuple appears in
    exactly one output shard, and each shard is a valid relation under
    the input's schema. *)

val index : shards:int -> string -> int
(** The shard of a canonical string: the first four digest bytes as a
    big-endian int, mod [shards]. Total on any string; 0 when
    [shards ≤ 1]. *)

val by_key : shards:int -> Erm.Relation.t -> Erm.Relation.t array
(** Partition by primary key into [shards] relations. *)

val by_value :
  shards:int -> attr:string -> Erm.Relation.t -> Erm.Relation.t array
(** Partition by the definite value of [attr].
    @raise Invalid_argument via {!Erm.Etuple.definite_value} if [attr]
    is missing or evidential. *)

val merge : Erm.Relation.t array -> Erm.Relation.t
(** The canonical merge: the union of a non-empty array of disjoint
    shards under the first shard's schema, recording the time taken in
    the [exec.merge.ns] histogram.
    @raise Erm.Relation.Duplicate_key if two shards share a key. *)
