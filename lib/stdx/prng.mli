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

val copy : t -> t
(** [copy g] returns an independent generator whose future output equals the
    future output of [g] at the time of the copy. *)

val split : t -> t
(** [split g] derives a new generator from [g], advancing [g].  The two
    resulting streams are statistically independent; use it to give each
    subsystem its own stream without sharing state. *)

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

val pick_list : t -> 'a list -> 'a
(** Uniformly random element of a non-empty list.
    @raise Invalid_argument on an empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choose_weighted : t -> ('a * float) list -> 'a
(** [choose_weighted g choices] picks one element with probability
    proportional to its weight.  Weights must be positive and the list
    non-empty.  @raise Invalid_argument otherwise. *)
