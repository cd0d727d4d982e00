(** CAN — the Content-Addressable Network (Ratnasamy et al., SIGCOMM 2001).

    The third substrate geometry named by the paper (with Chord's ring and
    Pastry's prefix space): a [d]-dimensional torus [\[0,1)^d] partitioned
    into rectangular zones, one per node.  Keys hash to points; the node
    whose zone contains the point owns the key.  A joining node picks a
    random point and splits the zone that contains it in half; routing
    greedily forwards towards the target point through zone neighbours,
    giving O(d·n^(1/d)) hops.

    The zones are the leaves of a binary partition tree: ownership is a
    descent, and a node's neighbours are found by a walk that skips every
    cell that cannot touch its zones.  Departures hand the zone to a
    neighbour (the paper's takeover), so the space always stays fully
    covered; the heir then owns both regions, as one zone when they were
    the two halves of one cell.  A [t] keeps one scratch buffer for its
    walks: use it from one domain at a time. *)

type t

(* lint: allow X1 — substrate dynamics; only tests drive it until ROADMAP item 3 *)
val create : ?seed:int64 -> ?dimensions:int -> unit -> t
(** An empty overlay over [\[0,1)^dimensions] (default 2).
    @raise Invalid_argument when [dimensions < 1]. *)

val create_network : ?seed:int64 -> ?dimensions:int -> node_count:int -> unit -> t
(** Bootstrap a network of [node_count] nodes by successive joins. *)

(* lint: allow X1 — substrate dynamics oracle for joins and leaves; ROADMAP item 3 *)
val node_count : t -> int

(* lint: allow X1 — substrate dynamics; only tests drive it until ROADMAP item 3 *)
val join : t -> int
(** Add a node under the next unused id, returned: it halves the zone
    that contains a random point and takes the half holding the point. *)

(* lint: allow X1 — substrate dynamics; only tests drive it until ROADMAP item 3 *)
val leave : t -> int -> unit
(** Graceful departure: the zone is taken over by one of its neighbours.
    @raise Not_found if no such live node.
    @raise Invalid_argument when removing the last node. *)

(* lint: allow X1 — substrate dynamics oracle for joins and leaves; ROADMAP item 3 *)
val point_of_key : t -> Hashing.Key.t -> float array
(** The deterministic point a key hashes to. *)

(* lint: allow X1 — substrate dynamics oracle for joins and leaves; ROADMAP item 3 *)
val owner_of_point : t -> float array -> int
(** The node whose zone contains the point (exact, from global knowledge). *)

(* lint: allow X1 — substrate dynamics oracle for joins and leaves; ROADMAP item 3 *)
val neighbours : t -> int -> int list
(** A live node's zone neighbours, ascending by id.
    @raise Not_found if no such live node. *)

val lookup : t -> ?from:int -> Hashing.Key.t -> int * int
(** Greedy neighbour routing from [from] (default: the newest live
    node, the highest live id) to the key's owner; returns (owner, hops).
    Each hop goes to the neighbour nearest the key's point, ties to the
    higher id. *)

(* lint: allow X1 — substrate dynamics oracle for joins and leaves; ROADMAP item 3 *)
val is_well_formed : t -> bool
(** Structural invariants: zones tile the space exactly (volumes sum to 1,
    every sampled point lies in one zone, the one the tree descends to),
    the live nodes own exactly the tree's leaves, and the neighbour
    relation is symmetric and equals a pairwise scan of the zones. *)

val resolver : t -> Resolver.t
(** Resolver view over the nodes live when it is built.  Node indexes
    are the dense positions of their ids in ascending order: the CAN ids
    themselves until a node has departed.  [replicas] are the owner, then
    its zone neighbours in ascending id (CAN's natural replica set). *)
