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

val of_string : string -> t
(** [of_string s] hashes an arbitrary string into the key space (SHA-1). *)

val prefix56 : t -> int
(** The key's first seven bytes as a non-negative int, most significant
    first: [compare] on two keys agrees with [Int.compare] on their
    prefixes whenever the prefixes differ. *)

(* lint: allow X1 — test view: small numeric keys for the ring-arithmetic checks *)
val of_int : int -> t
(** [of_int n] is the key with numeric value [n] (for tests).
    @raise Invalid_argument when [n < 0]. *)

val of_bytes : string -> t
(** [of_bytes s] is the key whose 20 big-endian bytes are [s].
    @raise Invalid_argument unless [String.length s = 20]. *)

(* lint: allow X1 — test view: keys written in hex in the ring-arithmetic checks *)
val of_hex : string -> t
(** Parse a 40-character hex key.  @raise Invalid_argument on bad input. *)

(* lint: allow X1 — test view: keys printed in full for pinned checks *)
val to_hex : t -> string

val short_hex : t -> string
(** First 8 hex characters — convenient for logs and examples. *)

val nibble : t -> int -> int
(** [nibble k i] is the i-th hexadecimal digit of the key, most significant
    first, [i] in [\[0, 40)] — the digit view prefix-routing DHTs (Pastry)
    work with.  @raise Invalid_argument when [i] is out of range. *)

(* lint: allow X1 — oracle: the plain XOR distance that compare_xor is checked against *)
val xor : t -> t -> t
(** Bitwise XOR of two keys — the Kademlia distance. *)

val bit : t -> int -> int
(** [bit k i] is the i-th bit of the key, most significant first, [i] in
    [\[0, bits)]: 0 or 1. *)

val common_prefix_bits : t -> t -> int
(** The number of leading bits two keys share: [bits] when they are
    equal, else the index of their first differing bit. *)

val compare_xor : target:t -> t -> t -> int
(** [compare_xor ~target a b] orders [a] and [b] by XOR distance to
    [target]: it has the sign of [compare (xor target a) (xor target b)],
    without building either distance. *)

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

val distance_cw_bits : t -> t -> int
(** [distance_cw_bits a b] is the bit length of [distance_cw a b]: 0
    when [a = b], else the [i + 1] with [2^i <= distance_cw a b < 2^(i+1)].
    Allocates nothing. *)

val random : Stdx.Prng.t -> t
(** A uniformly random key. *)

val hash : t -> int
(** The key's words folded and mixed: every bit depends on every byte. *)

module Table : Hashtbl.S with type key = t
(** The one key-indexed hash table: hashed on the key's own words, so a
    probe reads no more than the key and never calls the polymorphic
    hash or compare. *)
