(** Order-preserving term-to-key mapping (the Darmstadt prefix-search
    construction).

    The three paper schemes place index entries by {e hashing} the query
    string, which scatters lexicographically adjacent terms uniformly over
    the ring — good for load, fatal for prefix search.  This module is the
    opposite mapping: the first {!max_bytes} bytes of a term are packed
    big-endian into the 160-bit key space, so [compare a b] on terms and
    [Key.compare (encode a) (encode b)] agree (up to the truncation), and
    every prefix [p] corresponds to one {e contiguous} arc of the ring:
    [\[encode p, p padded with 0xff\]].  A prefix query therefore routes to
    the small set of nodes whose responsibility arcs intersect that
    interval instead of being flooded to everyone.

    Terms longer than {!max_bytes} collapse onto the key of their
    truncation; covering nodes resolve such collisions with a node-local
    exact prefix filter (see {!Prefix_index}), so results stay exact. *)

val max_bytes : int
(** Bytes of a term that survive into the key: 20 (160 bits / 8). *)

val encode : string -> Hashing.Key.t
(** Big-endian packing of the term's first {!max_bytes} bytes, zero-padded
    on the right.  Monotone: [String.compare a b] and
    [Key.compare (encode a) (encode b)] have the same sign whenever [a]
    and [b] differ within their first {!max_bytes} bytes. *)

val range : string -> Hashing.Key.t * Hashing.Key.t
(** [range p] is the inclusive key interval [(lo, hi)] covering exactly
    the encodings of strings that start with [p]: [p] padded with [0x00]
    and with [0xff].  [range ""] spans the whole space. *)

(* lint: allow X1 — oracle: the range membership routed prefix queries must agree with *)
val in_range : string -> key:Hashing.Key.t -> bool
(** [in_range p ~key]: does [key] fall inside [range p] (inclusive)? *)

val is_prefix : string -> string -> bool
(** [is_prefix p s]: is [p] a (not necessarily proper) prefix of [s]? *)
