(** The key-to-node service every substrate provides.

    The indexing layer only needs one operation from the P2P substrate: given
    a key, find the live node responsible for it (Section III-A).  A resolver
    packages that operation together with the routing cost of answering it,
    so the simulation can charge substrate hops when it wants to (the paper
    treats them as orthogonal; the ablation benches do not). *)

type t = {
  node_count : int;
  responsible : Hashing.Key.t -> int;
      (** Index of the live node responsible for the key. *)
  route_hops : Hashing.Key.t -> int;
      (** Number of overlay hops a lookup of this key takes. *)
  replicas_into : Hashing.Key.t -> int -> Stdx.Int_buf.t -> unit;
      (** [replicas_into key r buf]: the [r] distinct nodes that hold the
          key's replicas, primary first, written into [buf] (cleared
          first) — on ring substrates, the responsible node followed by
          its successors (Chord/DHash-style replica placement).  Shorter
          than [r] when the network is smaller.  The substrate's one
          replica-placement function. *)
}

val responsible : t -> Hashing.Key.t -> int
val route_hops : t -> Hashing.Key.t -> int
val node_count : t -> int
val replicas_into : t -> Hashing.Key.t -> int -> Stdx.Int_buf.t -> unit
(** Allocation-free replica placement: fills the scratch buffer in
    placement order. *)

val replicas : t -> Hashing.Key.t -> int -> int list
(** {!replicas_into} into a fresh buffer, as a list — for cold paths
    and tests. *)

type ring
(** Sorted ring positions with their 56-bit prefixes ({!Hashing.Key.prefix56}),
    the search structure behind every ring substrate's ownership rule. *)

val ring : Hashing.Key.t array -> ring
(** [ring positions] over positions sorted ascending by
    {!Hashing.Key.compare}; the array is shared, not copied. *)

val ring_successor : ring -> Hashing.Key.t -> int
(** Index of the first position [>=] the key, wrapping to 0 past the
    last one: the key's clockwise successor.  O(log n); full keys are
    compared only where two prefixes tie. *)

val ring_replicas_into :
  node_count:int -> primary:int -> int -> Stdx.Int_buf.t -> unit
(** Placement for substrates whose node indexes are ring-ordered:
    [primary] and its [r - 1] successors, wrapping, into a scratch
    buffer (cleared first).
    @raise Invalid_argument when [r < 1]. *)
