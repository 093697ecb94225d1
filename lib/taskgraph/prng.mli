(** Deterministic pseudo-random number generator (splitmix64).

    Used by the workload generators so every experiment is reproducible
    across machines and OCaml versions, independently of [Stdlib.Random]
    (whose algorithm changed in OCaml 5). *)

type t

val create : int -> t
(** [create seed] builds a generator from a seed. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n-1]. Raises [Invalid_argument] when
    [n <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [lo, hi] inclusive. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p]. *)

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list. Raises [Invalid_argument] on
    the empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val split : t -> t
(** A new generator with an independent stream. *)
