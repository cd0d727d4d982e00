(** Pastry (Rowstron & Druschel, Middleware 2001) — the paper's second
    reference substrate (Pastry/PAST).

    Prefix-based routing over the 160-bit identifier space read as 40
    hexadecimal digits (b = 4): each node keeps a {e leaf set} of its
    numerically closest neighbours and a {e routing table} with one row per
    shared-prefix length and one column per next digit.  A message for key
    [k] is delivered to the live node whose identifier is numerically
    closest to [k]; each hop either lands in the leaf set or extends the
    shared prefix by at least one digit, giving O(log_16 N) routes.

    Note the ownership rule differs from Chord's (numerically closest node
    rather than clockwise successor) — the {!resolver} view reflects that,
    and the indexing layer runs unchanged on either. *)

type t

val create : ?seed:int64 -> unit -> t
(** An empty overlay.  Each node keeps 8 leaf neighbours on each side. *)

val create_network : ?seed:int64 -> node_count:int -> unit -> t
(** Bootstrap a network with fully correct routing state. *)

val join : t -> Hashing.Key.t
(** Add one node with a fresh identifier, routing its join request through
    the overlay and initializing its state from the nodes encountered, as
    in the Pastry join protocol; returns the identifier. *)

val join_with_key : t -> Hashing.Key.t -> unit
(** Join with an explicit identifier (for tests).
    @raise Invalid_argument if already present. *)

val leave : t -> Hashing.Key.t -> unit
(** Abrupt failure.  @raise Not_found if no such live node. *)

val repair : t -> unit
(** One repair round on every node: purge dead entries, refill leaf sets
    from neighbours' leaf sets, and patch routing-table holes from
    reachable nodes.  Run a few times after failures. *)

val live_count : t -> int
val live_keys : t -> Hashing.Key.t list

val lookup : t -> ?from:Hashing.Key.t -> Hashing.Key.t -> Hashing.Key.t * int
(** Route to the node responsible for the key; returns (owner, hops).
    @raise Not_found on an empty overlay. *)

val responsible_oracle : t -> Hashing.Key.t -> Hashing.Key.t
(** Ground truth: the live node numerically closest to the key (ties to the
    counter-clockwise side). *)

val is_converged : t -> bool
(** All lookups from all nodes agree with the oracle and leaf sets are
    correct. *)

val resolver : t -> Resolver.t
(** Resolver view: node indexes are ring-order positions among live nodes;
    [route_hops] measures real Pastry routes. *)
