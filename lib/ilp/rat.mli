(** Arbitrary-precision rational arithmetic, pure OCaml.

    The exact number type behind {!Certify}: every finite IEEE double is
    a dyadic rational, so converting the solver's floating-point data
    with {!of_float} loses nothing, and all subsequent arithmetic here
    is exact. Values are kept normalized (reduced by gcd, positive
    denominator), so structural equality of the printed form follows
    value equality.

    The implementation is sign-magnitude bignums over base-2^30 limbs
    with schoolbook multiplication and Knuth division — no third-party
    dependency, and entirely adequate for re-solving solver bases whose
    entries start life as doubles. *)

type t

val zero : t
val one : t
val minus_one : t

val of_int : int -> t

val of_ints : int -> int -> t
(** [of_ints p q] is the rational p/q. Raises [Division_by_zero] when
    [q = 0]. *)

val of_float : float -> t
(** Exact conversion: [to_float (of_float f) = f] for every finite
    double whose value survives the round trip (all do except where
    [to_float]'s final rounding differs by one ulp on extreme
    magnitudes). Raises [Invalid_argument] on [nan] or infinities —
    callers must handle unbounded data before converting. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** Raises [Division_by_zero]. *)

val neg : t -> t
val abs : t -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val min : t -> t -> t
val max : t -> t -> t

val to_float : t -> float
(** Nearest-double approximation (not guaranteed correctly rounded in
    the last ulp for values needing more than 100 significant bits). *)

(** The multi-limb arithmetic alone. {!add}, {!mul}, {!div} and
    {!compare} take a native-int path when every numerator and
    denominator of their operands fits one 30-bit limb, and fall back
    to these otherwise; both paths return the same normalized value. *)
module Limbs : sig
  val add : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val compare : t -> t -> int
end

val to_string : t -> string
(** ["p/q"] in lowest terms, or just ["p"] when the denominator is 1. *)

val pp : Format.formatter -> t -> unit
