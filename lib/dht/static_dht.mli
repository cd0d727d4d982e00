(** Consistent-hashing "perfect" DHT.

    Node identifiers are spread over the ring and every key is owned by its
    clockwise successor node — the same ownership rule as Chord, computed
    from global knowledge in O(log n) per lookup.  The large simulations use
    this substrate because the paper treats the lookup layer as orthogonal:
    "we simply assume that the underlying DHT is able to find a node n
    responsible for a given key k" (Section V-A). *)

type t

val create : ?seed:int64 -> node_count:int -> unit -> t
(** [create ~node_count ()] places [node_count] nodes at pseudo-random ring
    positions derived from [seed] (default 1). *)

val of_keys : Hashing.Key.t array -> t
(** Build from explicit node identifiers (for tests).  Identifiers must be
    distinct.  @raise Invalid_argument otherwise, or if the array is empty. *)

val node_key : t -> int -> Hashing.Key.t
(** Ring identifier of node [i] (indexes are assigned in ring order). *)

val responsible : t -> Hashing.Key.t -> int
(** Index of the node owning the key: the first node clockwise from it. *)

val resolver : t -> Resolver.t
(** A resolver view; [route_hops] is 1 (direct key-to-node oracle). *)
