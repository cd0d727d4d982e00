(** The routed prefix/range index — the fourth index scheme.

    The paper's Simple/Flat/Complex schemes hash whole query strings, so a
    prefix query can only be answered by flooding every node or filtering
    client-side.  This index instead files each term under its
    {!Prefix_key} order-preserving key, which turns a prefix query into a
    contiguous ring arc: the query routes once to the head of the arc and
    then touches only the handful of {!Range_router} covering nodes — the
    Darmstadt prefix-search construction on top of this repo's resolver,
    RPC and wire-accounting layers.

    Two query shapes are offered.  {e Direct} contacts each covering node
    with its own request/response exchange (cheap bytes, initiator pays
    one round-trip per node).  {e Multicast} sends one routed call to the
    root of a {!Multicast} spanning tree over the covering nodes; the
    query fans down the tree edges and results aggregate back up, so
    entries travel once per tree level — fewer initiator interactions,
    more relay bytes.  The [prefix-sweep] experiment plots this
    trade-off.

    Entries are regular DHT data (Section IV-D): a
    {!Storage.Replicated_store} written only through its grouped write
    holds them, with the hashed schemes' replication and TTLs.  Traffic
    is billed on the supplied {!Dht.Rpc.t} (Request/Response for
    queries, Maintenance for installs).  Every iteration is over sorted
    views or arrays: byte-deterministic. *)

type 'a t

type 'a stored
(** One stored entry: the term, the payload and its rendering. *)

val create :
  ?rpc:Dht.Rpc.t ->
  ?metrics:Obs.Metrics.t ->
  ?replication:int ->
  ?read_quorum:int ->
  ?write_quorum:int ->
  ?liveness:Dht.Liveness.t ->
  ?clock:(unit -> float) ->
  ?ttl:float ->
  render:('a -> string) ->
  resolver:Dht.Resolver.t ->
  unit ->
  'a t
(** The store is built as {!Storage.Replicated_store.create} builds one;
    entries written at time [now] expire at [now +. ttl] (default
    [infinity]).  [render] gives each payload its canonical wire string,
    computed once per written entry: byte accounting {e and} payload
    identity (no polymorphic compare).  With [metrics], the
    [p2pindex_prefix_*] families are registered.  Without [rpc] a
    transparent unbilled channel is used. *)

val store : 'a t -> 'a stored Storage.Replicated_store.t
(** For the churn driver, which fails, pauses and drops its nodes. *)

val publish : 'a t -> (string * 'a) list -> unit
(** File each [(term, payload)] under [Prefix_key.encode term], one store
    write per key; each entry new to a live replica is billed there as
    one reliable Maintenance message. *)

val republish : 'a t -> (string * 'a) list -> unit
(** {!publish} as soft-state refresh: every entry is billed at every live
    replica, new or not. *)

val publish_multicast : 'a t -> (string * 'a) list -> Multicast.stats option
(** {!publish} through a spanning tree over the entries' primaries: each
    tree message carries, and is priced for, the installs of its whole
    subtree; replicas past the primary are billed as {!publish} bills
    them.  [None] on an empty batch. *)

val query : ?multicast:bool -> 'a t -> prefix:string -> int * (string * 'a) list
(** The node asked first, and every entry whose term starts with
    [prefix], sorted by [(term, rendered payload)] and deduplicated.
    Each covering arc is answered by its primary when alive, else by the
    first live node of its replica set; an arc with no live replica
    contributes nothing, and with no reader at all the node named is the
    arc's primary.  [multicast] (default false) selects the spanning-tree
    shape; both shapes agree on a fault-free network. *)

val query_broadcast : 'a t -> prefix:string -> (string * 'a) list
(** The flooding baseline: ask {e every} live node and filter. *)
