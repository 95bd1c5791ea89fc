(* Numeric abstraction for mass arithmetic.

   Dempster-Shafer combination is a pipeline of products, sums and one
   division (normalization). The {!Mass.Make} functor is parameterized over
   this signature so the same combination code runs both on floats (the
   runtime representation) and on exact rationals (used by the test suite
   to check the paper's fractions such as 3/7 and 2/21 exactly). *)

module type S = sig
  type t

  val zero : t
  val one : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val compare : t -> t -> int

  val equal : t -> t -> bool
  (** Equality used for invariant checks ("masses sum to 1"). The float
      instance is tolerance-based; the rational instance is exact. *)

  val of_float : float -> t
  val to_float : t -> float
  val pp : Format.formatter -> t -> unit
end

(** Tolerance used by the float instance for sum-to-one checks and mass
    equality. Combination chains multiply rounding errors, hence a looser
    bound than machine epsilon. *)
let float_tolerance = 1e-9

(* The numeric literal of masses and supports: a float, or an exact
   fraction [a/b] of two ints with [b <> 0]. *)
let float_of_literal s =
  match String.index_opt s '/' with
  | Some k -> (
      let a = String.sub s 0 k
      and b = String.sub s (k + 1) (String.length s - k - 1) in
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b when b <> 0 -> Some (float_of_int a /. float_of_int b)
      | _ -> None)
  | None -> float_of_string_opt s

module Float : S with type t = float = struct
  type t = float

  let zero = 0.0
  let one = 1.0
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )
  let div = ( /. )
  let compare = Float.compare
  let equal a b = Float.abs (a -. b) <= float_tolerance
  let of_float f = f
  let to_float f = f
  let pp ppf f = Format.fprintf ppf "%g" f
end

module Rational : S with type t = Qarith.Q.t = struct
  type t = Qarith.Q.t

  let zero = Qarith.Q.zero
  let one = Qarith.Q.one
  let add = Qarith.Q.add
  let sub = Qarith.Q.sub
  let mul = Qarith.Q.mul
  let div = Qarith.Q.div
  let compare = Qarith.Q.compare
  let equal = Qarith.Q.equal
  let of_float = Qarith.Q.of_float_dyadic
  let to_float = Qarith.Q.to_float
  let pp = Qarith.Q.pp
end
