(** Extended relations.

    A set of extended tuples with definite, unique keys, under the
    generalized closed world assumption CWA_ER (§2.3): every stored tuple
    has positive necessary support ([sn > 0]); tuples not stored are
    interpreted as having [sn = 0]. {!add} enforces the invariant; the
    [_unchecked] variants exist solely for the Theorem-1 boundedness
    experiments, which must materialize complement tuples. *)

type t

exception Relation_error of string

exception Duplicate_key of Dst.Value.t list
(** Raised when inserting a tuple whose key is already present. *)

val empty : Schema.t -> t

val add : t -> Etuple.t -> t
(** @raise Relation_error when the tuple violates CWA_ER ([sn = 0]).
    @raise Duplicate_key when the key is already bound. *)

val add_unchecked : t -> Etuple.t -> t
(** {!add} without the CWA_ER check — test instrumentation only. *)

val of_tuples : Schema.t -> Etuple.t list -> t
val of_tuples_unchecked : Schema.t -> Etuple.t list -> t

val replace : t -> Etuple.t -> t
(** Insert-or-overwrite by key (still CWA_ER-checked). *)

val remove : t -> Dst.Value.t list -> t

val schema : t -> Schema.t
val cardinal : t -> int
val is_empty : t -> bool

val find : t -> Dst.Value.t list -> Etuple.t
(** @raise Not_found. *)

val find_opt : t -> Dst.Value.t list -> Etuple.t option
val mem : t -> Dst.Value.t list -> bool

val tuples : t -> Etuple.t list
(** In increasing key order — a deterministic iteration order makes the
    reproduced tables stable. *)

val fold : (Etuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Etuple.t -> unit) -> t -> unit
val filter : (Etuple.t -> bool) -> t -> t
(** Keeps the tuples satisfying the predicate, calling it once per tuple
    in increasing key order. When it keeps every tuple, the result is
    the input itself (physically equal). *)

val for_all : (Etuple.t -> bool) -> t -> bool
val exists : (Etuple.t -> bool) -> t -> bool

val map_tuples : (Etuple.t -> Etuple.t option) -> Schema.t -> t -> t
(** Rebuilds a relation under a (possibly different) schema from the
    mapped tuples; [None] drops the tuple. Tuples with [sn = 0] after the
    map are dropped too, preserving CWA_ER — this is how the operators
    guarantee the closure property.

    The map is {e key-preserving}: a kept tuple must have the key of the
    tuple it came from, which lets the result reuse the key order in one
    O(n) pass instead of re-inserting. [f] is called exactly once per
    tuple, in increasing key order — seeded callers such as
    [Federation.Fault.corrupt] draw their random numbers in that order.
    @raise Relation_error if a kept tuple's key differs from its
    input's. *)

val merge :
  (Etuple.t option -> Etuple.t option -> Etuple.t option) ->
  Schema.t ->
  t ->
  t ->
  t
(** [merge f schema a b] is the key-ordered structural merge behind the
    binary operators: for every key bound in [a] or [b], [f] receives
    the tuple of each side ([None] where the key is unbound; never both
    [None]) and returns the result's tuple for that key, or [None] to
    drop it. [f] is called exactly once per key, in increasing key
    order, so side effects (lineage records, conflict lists) happen in
    key order. As for {!map_tuples}, results with [sn = 0] are dropped
    and a kept tuple must carry the key it was called for. Nothing is
    re-inserted: the operands' key-ordered maps are paired structurally
    and the result is built in the same ascending pass that calls [f].
    @raise Relation_error if a kept tuple's key differs from its key. *)

val split : t -> Dst.Value.t list -> t * t
(** [split r key] cuts [r] at [key] into the tuples whose keys sort
    below [key] and those whose keys sort at or above it, both under
    [r]'s schema. [key] need not be bound in [r]. O(log n): the two
    halves share the key-ordered map's subtrees. *)

val append : t -> t -> t
(** [append a b] is the ordered concatenation of two relations whose
    key ranges do not meet: every key of [a] sorts below every key of
    [b]. The result carries [a]'s schema, and either operand may be
    empty. Nothing is re-inserted: after an O(log n) check of the seam,
    the structural union of range-disjoint maps only walks the spines
    that meet there, O(log² n) in all.
    @raise Duplicate_key with [b]'s first key when it does not sort
    above [a]'s last key: the operands overlap or are out of order. *)

val disjoint_union : t -> t -> t
(** The union of two relations with disjoint, possibly interleaved
    keys, under the first's schema, built structurally rather than by
    re-inserting.
    @raise Duplicate_key if a key is bound in both. *)

val equal : t -> t -> bool
(** Same schema (union-compatible, names ignored) and equal tuple sets. *)

val satisfies_cwa : t -> bool
(** True iff every stored tuple has [sn > 0]. Always true for relations
    built without the [_unchecked] constructors. *)

val pp : Format.formatter -> t -> unit
