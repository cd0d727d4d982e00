(** Deterministic spanning-tree multicast over a covering-node set.

    Given the nodes covering a prefix range (in ring-walk order), this
    module lays them out as an implicit binary heap: member [0] is the
    root, the children of slot [i] are slots [2i+1] and [2i+2].  The
    initiator sends one message to the root and every tree edge forwards
    one message down, so disseminating to [n] members costs exactly [n]
    messages — one plus one per edge, within the O(n) optimal bound of the
    Darmstadt construction — and reaches everyone in [O(log n)] levels.

    Determinism (lint rule D2): the tree is a pure function of the member
    {e list order}.  Members are deduplicated first-occurrence-first and
    stored in an array; no hashtable iteration order leaks into the edge
    set, so two runs over the same covering set produce byte-identical
    trees, stats, and delivery order. *)

type tree

val build : int list -> tree
(** Deduplicate (keeping first occurrences) and lay the members out as an
    implicit heap.  The first member becomes the root.
    @raise Invalid_argument on an empty list. *)

val members : tree -> int list
(** Members in heap-slot (delivery) order, root first. *)

val edges : tree -> (int * int) list
(** [(parent, child)] pairs in child-slot order — deterministic: one
    fewer than the members. *)

val depth : tree -> int
(** Hops from the initiator to the deepest member: the root is 1 hop,
    its children 2, ...  [depth] of a singleton tree is 1. *)

type stats = { messages : int; depth : int; fanout : int }
(** One dissemination: total messages sent (initiator→root plus one per
    edge), tree depth in hops, and members reached. *)

val disseminate :
  rpc:Dht.Rpc.t ->
  bytes:(int -> int) ->
  deliver:(int -> unit) ->
  tree ->
  stats
(** Fan a payload to every member, exactly once each, via reliable
    one-way sends: the initiator→root message plus one message per tree
    edge.  [bytes node] prices the message {e addressed to} [node] (so
    per-subtree aggregation can be modelled by the caller); [deliver
    node] applies the payload at [node], before its message is billed.
    Messages are billed on [rpc]'s network as maintenance traffic.
    Always [messages] = the member count. *)
