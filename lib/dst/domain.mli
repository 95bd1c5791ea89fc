(** Frames of discernment.

    A domain is the finite set Ω of values an attribute can take, plus a
    human-readable name. Mass functions carry their domain, so Ω is an
    ordinary focal element (the full value set) and combination can verify
    that both operands discern the same frame.

    {b Frame numbering.} A frame numbers its values in {!Value.compare}
    order: value [i] is the i-th smallest. A subset of the frame is then a
    {!mask}: bit [i mod 62] of word [i / 62] is set iff value [i] is in
    the set, so frames of up to 62 values take one word and wider frames
    take [⌈|Ω| / 62⌉] words under the same rule. Frames with equal value
    sets number their values alike, so a mask built against one is valid
    against the other. *)

type t

exception Empty_domain of string
(** Raised by {!make} when the value set is empty: a frame of discernment
    must contain at least one world. *)

val make : string -> Vset.t -> t
(** [make name values]. @raise Empty_domain if [values] is empty. *)

val of_strings : string -> string list -> t
(** [of_strings name atoms] builds a domain of string values. *)

val of_values : string -> Value.t list -> t

val name : t -> string
val values : t -> Vset.t
val size : t -> int
val mem : Value.t -> t -> bool

val subset : Vset.t -> t -> bool
(** [subset s d] is true iff every value of [s] belongs to [d]. *)

val equal : t -> t -> bool
(** Equality of the underlying value sets; names are documentation only.
    O(1) when the two frames are physically equal. *)

val compare : t -> t -> int
(** The order of the underlying value sets ({!Vset.compare}); O(1) when
    the two frames are physically equal. *)

val boolean : t
(** The membership frame Ψ = [{true, false}] used for tuple membership
    support pairs (§2.3 of the paper). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Frame numbering and masks} *)

type mask = int array
(** A subset of a frame, {!words} words long, numbered as above. Masks
    are also stored back to back in one array (a mass function's focal
    sets): the [_at] functions take the word count [w], an array and the
    offset of the set's first word. *)

val words : t -> int
(** Words per mask of this frame. *)

val index : t -> Value.t -> int
(** The value's number in the frame, or [-1] if it is not in the frame. *)

val value : t -> int -> Value.t
(** [value d i] is the i-th smallest value of [d]. *)

val add_bit : mask -> int -> unit
(** [add_bit m i] adds value number [i] to [m] in place. *)

val empty_mask : t -> mask
(** A fresh all-zero mask. *)

val full_mask : t -> mask
(** Ω's mask. Shared by every caller: never write to it. *)

val mask : t -> Vset.t -> mask
(** The mask of [s ∩ Ω]: values outside the frame are dropped, which
    leaves Bel and Pls of the set unchanged. *)

val compare_at : int -> mask -> int -> mask -> int -> int
(** [compare_at w a i b j] is {!Vset.compare} of the decoded [w]-word
    sets at [a.(i)] and [b.(j)], in O(w) and without decoding: let d be
    the lowest bit of [a lxor b]; if d is in [a], then [a < b] iff [b]
    has a bit above d, otherwise [a > b] iff [a] has a bit above d. *)

val subset_at : int -> mask -> int -> mask -> int -> bool
(** [subset_at w a i b j]: the set at [a.(i)] is a subset of the one at
    [b.(j)]. *)

val disjoint_at : int -> mask -> int -> mask -> int -> bool
val cardinal_at : int -> mask -> int -> int

val fold_at : int -> mask -> int -> (int -> 'a -> 'a) -> 'a -> 'a
(** Folds over the numbers of the set's values, ascending. *)

val exists_at : t -> mask -> int -> (Value.t -> bool) -> bool
(** Whether some value of the set satisfies the test; values are tried
    in ascending order, stopping at the first that passes. *)

val vset_at : t -> mask -> int -> Vset.t
(** The set's values: the decoding used by printing and boundary APIs. *)

val is_full_at : t -> mask -> int -> bool
(** Whether the set is Ω. *)

val add_set_at : Buffer.t -> t -> mask -> int -> unit
(** Appends the set in the paper's notation: a singleton as its value,
    any other set as [{v1, v2, …}] in ascending order. *)
