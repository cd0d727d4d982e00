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

(* lint: allow X1 — substrate dynamics; only tests drive it until ROADMAP item 3 *)
val create : ?seed:int64 -> unit -> t
(** An empty overlay.  Each node keeps 8 leaf neighbours on each side. *)

val create_network : ?seed:int64 -> node_count:int -> unit -> t
(** Bootstrap a network with fully correct routing state. *)

(* lint: allow X1 — substrate dynamics; only tests drive it until ROADMAP item 3 *)
val join : t -> Hashing.Key.t
(** Add one node with a fresh identifier, routing its join request through
    the overlay and initializing its state from the nodes encountered, as
    in the Pastry join protocol; returns the identifier. *)

(* lint: allow X1 — substrate dynamics; only tests drive it until ROADMAP item 3 *)
val join_with_key : t -> Hashing.Key.t -> unit
(** Join with an explicit identifier (for tests).
    @raise Invalid_argument if already present. *)

(* lint: allow X1 — substrate dynamics; only tests drive it until ROADMAP item 3 *)
val leave : t -> Hashing.Key.t -> unit
(** Abrupt failure.  @raise Not_found if no such live node. *)

(* lint: allow X1 — substrate dynamics; only tests drive it until ROADMAP item 3 *)
val repair : t -> unit
(** One repair round on every node: purge dead entries, refill leaf sets
    from neighbours' leaf sets, and patch routing-table holes from
    reachable nodes.  Run a few times after failures. *)

(* lint: allow X1 — substrate dynamics oracle for joins and leaves; ROADMAP item 3 *)
val live_count : t -> int
(* lint: allow X1 — substrate dynamics oracle for joins and leaves; ROADMAP item 3 *)
val live_keys : t -> Hashing.Key.t list

val lookup : t -> ?from:Hashing.Key.t -> Hashing.Key.t -> Hashing.Key.t * int
(** Route to the node responsible for the key; returns (owner, hops).
    @raise Not_found on an empty overlay. *)

(* lint: allow X1 — substrate dynamics oracle for joins and leaves; ROADMAP item 3 *)
val responsible_oracle : t -> Hashing.Key.t -> Hashing.Key.t
(** Ground truth: the live node numerically closest to the key — the
    nearer of its ring successor and predecessor, ties to the smaller
    identifier (the clockwise side at the wrap). *)

(* lint: allow X1 — substrate dynamics oracle for joins and leaves; ROADMAP item 3 *)
val is_converged : t -> bool
(** Routes from every live node to every live identifier land on that
    identifier. *)

val resolver : t -> Resolver.t
(** Resolver view: node indexes are ring-order positions among live nodes,
    ownership is {!responsible_oracle}'s rule; [route_hops] measures real
    Pastry routes. *)
