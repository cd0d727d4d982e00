(** The identifier-keyed node table of the protocol substrates (Chord,
    Pastry, Kademlia): which identifiers have joined, which of them are
    live, and the live ones as one sorted {!Resolver.ring}.

    Each substrate's ownership rule is one lookup in that ring — the
    ring successor, the nearer of successor and predecessor, the
    XOR-closest key — so its oracle, its resolver and its convergence
    check all read the same structure.  The ring is rebuilt only when a
    join or a failure has changed the live set since it was last read. *)

type 'a t
(** A table of nodes of type ['a]. *)

val create : seed:int64 -> unit -> 'a t
(** An empty table whose identifier draws are seeded by [seed]. *)

val fresh_key : 'a t -> Hashing.Key.t
(** A pseudo-random identifier no node of the table has ever held,
    live or failed. *)

val add : 'a t -> Hashing.Key.t -> 'a -> unit
(** [add t key node]: [key] joins with state [node] — a fresh identifier
    or a failed one rejoining, whose old state is dropped.
    @raise Invalid_argument when [key] is live. *)

val fail : 'a t -> Hashing.Key.t -> unit
(** Mark a live node failed; its state stays reachable through {!find}.
    @raise Not_found when [key] is not live. *)

val find : 'a t -> Hashing.Key.t -> 'a
(** The state of a node, live or failed.
    @raise Invalid_argument on an identifier never added. *)

val is_alive : 'a t -> Hashing.Key.t -> bool

val live_count : 'a t -> int
(** O(1). *)

val ring : 'a t -> Resolver.ring
(** The live identifiers in ascending order; positions in it are the
    substrates' resolver node indexes. *)

val live_keys : 'a t -> Hashing.Key.t list
(** {!ring} as a list. *)

val first_live : 'a t -> Hashing.Key.t
(** The minimal live identifier — the default origin of lookups and the
    bootstrap node of joins.  @raise Not_found when no node is live. *)

val owner : 'a t -> (Resolver.ring -> Hashing.Key.t -> int) -> Hashing.Key.t -> Hashing.Key.t
(** [owner t rule key]: the live identifier at the ring position [rule]
    picks for [key] — a substrate's ground-truth ownership.
    @raise Not_found when no node is live. *)
