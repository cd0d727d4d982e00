(** Chord (Stoica et al., SIGCOMM 2001) — the reference DHT substrate.

    A full single-process implementation of the protocol: the 160-bit ring,
    per-node finger tables, successor lists, iterative lookup with
    closest-preceding-finger routing, join, the periodic stabilization /
    notify / fix-fingers maintenance loop, and failure handling through
    successor lists.

    Nodes are driven synchronously: the simulation calls {!stabilize}
    explicitly, so every run is deterministic.  Lookups report their hop
    count, which the substrate-ablation benchmark uses to charge real routing
    costs under the indexing layer. *)

type t

val create : ?metrics:Obs.Metrics.t -> ?seed:int64 -> unit -> t
(** An empty ring.  Each node keeps a successor list of 8 entries for
    failure recovery.  With [metrics],
    maintenance rounds and abandoned lookups are counted in the registry
    ([p2pindex_chord_stabilization_rounds_total],
    [p2pindex_chord_failed_lookups_total]). *)

val create_network : ?metrics:Obs.Metrics.t -> ?seed:int64 -> node_count:int -> unit -> t
(** [create_network ~node_count ()] bootstraps a ring of [node_count] nodes
    with fully correct routing state: the state stabilization converges
    to, installed directly.  It draws the same identifiers, in the same
    order, as [node_count] calls to {!join} on an empty ring. *)

val join : t -> Hashing.Key.t
(** Add one node with a fresh pseudo-random identifier, bootstrapping through
    an arbitrary live node; returns the new node's identifier.  The node is
    immediately linked to its successor; background stabilization completes
    its fingers. *)

(* lint: allow X1 — substrate dynamics; only tests drive it until ROADMAP item 3 *)
val join_with_key : t -> Hashing.Key.t -> unit
(** Add a node with an explicit identifier (for tests).
    @raise Invalid_argument if the identifier is already present. *)

val leave : t -> Hashing.Key.t -> unit
(** Fail the node with the given identifier (abrupt departure — no goodbye
    messages, mimicking churn).  @raise Not_found if no such live node. *)

val live_count : t -> int
(** Live nodes, kept current by joins and failures (no table walk). *)

(* lint: allow X1 — substrate dynamics oracle for joins and leaves; ROADMAP item 3 *)
val first_live : t -> Hashing.Key.t
(** The minimal live identifier — the head of {!live_keys} and the
    default origin of {!lookup}.  @raise Not_found on an empty ring. *)

val live_keys : t -> Hashing.Key.t list
(** Identifiers of live nodes, in ring order. *)

val stabilize : t -> rounds:int -> unit
(** Run several rounds. *)

val lookup : t -> ?from:Hashing.Key.t -> Hashing.Key.t -> Hashing.Key.t * int
(** [lookup t key] routes from [from] (default: the first live node) to the
    node responsible for [key] using finger tables; returns the responsible
    node's identifier and the hop count.  @raise Not_found on an empty
    ring. *)

val responsible_oracle : t -> Hashing.Key.t -> Hashing.Key.t
(** Ground truth from global knowledge: the live successor of [key].  Tests
    compare {!lookup} against this. *)

val is_converged : t -> bool
(** True when every live node's live successor and every finger entry
    match the state {!repair_globally} installs — the oracle's owners of
    [id + 1] and [id + 2^i] — i.e. stabilization has fully repaired the
    ring.  O(n · bits · log n). *)

(* lint: allow X1 — substrate dynamics; only tests drive it until ROADMAP item 3 *)
val repair_globally : t -> unit
(** Install on every live node the routing state stabilization converges
    to — successor, predecessor, successor list and fingers — directly. *)

(* lint: allow X1 — substrate dynamics oracle for joins and leaves; ROADMAP item 3 *)
val routing_state :
  t -> Hashing.Key.t -> Hashing.Key.t * Hashing.Key.t option * Hashing.Key.t list * Hashing.Key.t list
(** A node's successor, predecessor, successor list and fingers, for
    tests.  @raise Invalid_argument on an identifier never joined. *)

val resolver : t -> Resolver.t
(** Resolver view over live nodes: node indexes are positions in ring order
    (as in {!live_keys}); [route_hops] is the hop count of a lookup from
    {!first_live}, measured once per key while the ring's routing state
    and liveness stay unchanged (a join, failure, stabilization round or
    global repair measures again).  A route that fails to converge is
    counted and raised each time, never kept. *)
