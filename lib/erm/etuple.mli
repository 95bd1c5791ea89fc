(** Extended tuples.

    A tuple of an extended relation has definite key values, a cell per
    non-key attribute — either a definite value or an evidence set — and
    a tuple-membership support pair [(sn, sp)] (§2.3). Cells are stored
    positionally against the schema's attribute order; the schema is
    passed to the operations that need it rather than duplicated in every
    tuple. *)

type cell =
  | Definite of Dst.Value.t
      (** An exact value (keys, and descriptive columns such as the
          paper's [street] or [phone]). *)
  | Evidence of Dst.Evidence.t
      (** An evidence set (the paper's [†]-prefixed columns). *)

type t

exception Tuple_error of string

val make :
  Schema.t -> key:Dst.Value.t list -> cells:cell list -> tm:Dst.Support.t -> t
(** Validates arity, key value kinds, definite cell kinds, and evidence
    frames against the schema. @raise Tuple_error on any mismatch. *)

val of_assoc :
  Schema.t ->
  key:Dst.Value.t list ->
  cells:(string * cell) list ->
  tm:Dst.Support.t ->
  t
(** Like {!make} with cells given by attribute name, in any order.
    @raise Tuple_error if a non-key attribute is missing or unknown. *)

val key : t -> Dst.Value.t list
val cells : t -> cell list

val key_at : t -> int -> Dst.Value.t
(** [key_at t i] is the i-th key value ({!Schema.key_index} order). *)

val cell_at : t -> int -> cell
(** [cell_at t i] is the i-th non-key cell ({!Schema.nonkey_index}
    order). *)

val tm : t -> Dst.Support.t
val with_tm : Dst.Support.t -> t -> t

val cell : Schema.t -> t -> string -> cell
(** Cell of a non-key attribute, or the key value as a [Definite] cell
    for a key attribute. @raise Not_found on unknown names. *)

val evidence : Schema.t -> t -> string -> Dst.Evidence.t
(** The evidence set in the named evidential attribute.
    @raise Tuple_error if the attribute is definite.
    @raise Not_found on unknown names. *)

val definite_value : Schema.t -> t -> string -> Dst.Value.t
(** The exact value in the named definite attribute (key or non-key).
    @raise Tuple_error if the attribute is evidential. *)

val cell_equal : cell -> cell -> bool

val equal : t -> t -> bool
(** Key, cells and membership all equal (evidence compared with the float
    tolerance). *)

val key_equal : t -> t -> bool

val has_key : t -> Dst.Value.t list -> bool
(** [has_key t k] iff [key t] equals [k], without building the list. *)

val combine : Schema.t -> t -> t -> t
(** Attribute-wise Dempster combination of two key-matched tuples — the
    merge step of extended union (§3.2). Evidential cells are combined
    with Dempster's rule; definite cells must agree (the paper assumes
    consistent sources); membership pairs are combined on the boolean
    frame ({!Dst.Support.combine}).
    @raise Tuple_error if the keys differ or definite cells disagree.
    @raise Dst.Mass.F.Total_conflict if any attribute's evidence is in
    total conflict (κ = 1). *)

val combine_with :
  combine_evidence:(Dst.Evidence.t -> Dst.Evidence.t -> Dst.Evidence.t) ->
  Schema.t ->
  t ->
  t ->
  t
(** {!combine} with the per-cell evidence combination supplied by the
    caller — the hook through which {!Ops.union} and {!Ops.intersection}
    apply the session's rule policy. The membership frame is always
    combined by boolean-frame Dempster. Raises as the supplied function
    does. *)

val project : Schema.t -> t -> string list -> t
(** Cells for [Schema.project]'s attribute list, membership retained. *)

val concat : t -> t -> t
(** Key and cell concatenation with [F_TM] membership product — the tuple
    part of extended cartesian product (§3.4). *)

val pp_cell : Format.formatter -> cell -> unit
val pp : Schema.t -> Format.formatter -> t -> unit
