(** Shared node-liveness state.

    Under churn, several layers must agree on which peers are currently
    alive: the replicated stores skip dead replicas, the index layer
    retries lookups against live ones, and the simulation's churn driver
    flips nodes between the two states.  This module is that single
    source of truth — one mutable alive set, shared by reference between
    every component built over the same node population.

    A fresh liveness set has every node alive, which is exactly the
    static (churn-free) world: components that never receive a shared
    set create a private one and behave as before. *)

type t

val create : node_count:int -> t
(** All [node_count] nodes alive.
    @raise Invalid_argument when [node_count <= 0]. *)

val node_count : t -> int

val alive : t -> int -> bool
(** @raise Invalid_argument on an out-of-range node index. *)

val fail : t -> int -> bool
(** Mark a node dead; returns false when it already was (idempotent). *)

val revive : t -> int -> bool
(** Mark a node alive; returns false when it already was. *)

val live_count : t -> int
(** Number of currently live nodes (O(1)). *)

val first_live_buf : t -> Stdx.Int_buf.t -> int
(** The first live node of a resolved replica scratch buffer, in
    placement order, or [-1] when every candidate is dead — the
    allocation-free primitive behind replica failover.
    @raise Invalid_argument on an out-of-range node in the buffer. *)
