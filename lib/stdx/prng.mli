(** Deterministic pseudo-random number generator.

    All randomness in the project flows through this module so that every
    simulation and benchmark is bit-reproducible from a fixed seed.  The
    implementation is SplitMix64 (Steele, Lea, Flood; OOPSLA 2014), a fast
    64-bit generator with good statistical properties and trivial seeding. *)

type t
(** Mutable generator state. *)

val create : seed:int64 -> t
(** [create ~seed] returns a fresh generator.  Two generators created with the
    same seed produce identical streams. *)

val reseed : t -> seed:int64 -> unit
(** [reseed g ~seed] restarts [g] in place: its future output is that of
    [create ~seed].  Allocates nothing, so a caller that needs a fresh
    stream per item (one per message, say) can keep one generator. *)

(* lint: allow X1 — test view: the raw SplitMix64 stream, checked against the reference *)
val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** [int_in_range g ~lo ~hi] is uniform in [\[lo, hi\]] (inclusive).
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. *)

val unit_float : t -> float
(** Uniform in [\[0, 1)]. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array.
    @raise Invalid_argument on an empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choose_weighted : t -> ('a * float) list -> 'a
(** [choose_weighted g choices] picks one element with probability
    proportional to its weight.  Weights must be positive and the list
    non-empty.  @raise Invalid_argument otherwise. *)
