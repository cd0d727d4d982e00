(** 160-bit identifiers on the DHT ring.

    Keys are points on the circle [0, 2^160); both node identifiers and data
    keys live in this space.  The module provides the modular arithmetic that
    Chord routing needs: clockwise intervals, distances, and adding powers of
    two for finger-table targets. *)

type t
(** An immutable 160-bit key. *)

val bits : int
(** Width of the identifier space: 160. *)

val zero : t
val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
(** For use in hash tables. *)

val of_string : string -> t
(** [of_string s] hashes an arbitrary string into the key space (SHA-1). *)

val prefix56 : t -> int
(** The key's first seven bytes as a non-negative int, most significant
    first: [compare] on two keys agrees with [Int.compare] on their
    prefixes whenever the prefixes differ. *)

val of_int : int -> t
(** [of_int n] is the key with numeric value [n] (for tests).
    @raise Invalid_argument when [n < 0]. *)

val of_hex : string -> t
(** Parse a 40-character hex key.  @raise Invalid_argument on bad input. *)

val to_hex : t -> string

val short_hex : t -> string
(** First 8 hex characters — convenient for logs and examples. *)

val nibble : t -> int -> int
(** [nibble k i] is the i-th hexadecimal digit of the key, most significant
    first, [i] in [\[0, 40)] — the digit view prefix-routing DHTs (Pastry)
    work with.  @raise Invalid_argument when [i] is out of range. *)

val xor : t -> t -> t
(** Bitwise XOR of two keys — the Kademlia distance. *)

val compare_xor : target:t -> t -> t -> int
(** [compare_xor ~target a b] orders [a] and [b] by XOR distance to
    [target]: it has the sign of [compare (xor target a) (xor target b)],
    without building either distance. *)

val pp : Format.formatter -> t -> unit

val succ : t -> t
(** Next key clockwise (wraps at the top of the ring). *)

val add_pow2 : t -> int -> t
(** [add_pow2 k i] is [k + 2^i mod 2^160]; [i] must be in [\[0, bits)].
    Finger [i] of a Chord node [n] targets [add_pow2 n i].
    @raise Invalid_argument when [i] is out of range. *)

val in_interval_oo : t -> lo:t -> hi:t -> bool
(** Clockwise open interval membership: is [k] strictly between [lo] and
    [hi] walking clockwise from [lo]?  When [lo = hi] the interval is the
    whole ring minus that point. *)

val in_interval_oc : t -> lo:t -> hi:t -> bool
(** Clockwise half-open interval (lo, hi]: the interval Chord uses for
    successor responsibility.  When [lo = hi] it is the whole ring. *)

val distance_cw : t -> t -> t
(** [distance_cw a b] is the clockwise distance from [a] to [b]
    (i.e. [b - a mod 2^160]). *)

val to_float : t -> float
(** Approximate numeric value, for load-spread diagnostics. *)

val random : Stdx.Prng.t -> t
(** A uniformly random key. *)
