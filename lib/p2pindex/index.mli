(** The distributed query-to-query index (Section IV).

    Indexes are stored in the DHT itself: the node responsible for [h(q)]
    keeps the mappings [(q ; q_i)] with [q ⊒ q_i].  Looking up a query
    returns either the file (when the query is a most specific descriptor),
    the list of more specific queries registered under it, or nothing — in
    which case the generalization/specialization search of Section IV-B can
    still locate matching files at a higher lookup cost.

    Because index entries are regular DHT data (Section IV-D), they ride on
    the substrate's replication: every entry is written to [replication]
    replica nodes, lookups retry down the replica list when the responsible
    node is dead or has lost the mapping, and under churn the entries are
    soft state — TTL-stamped, refreshed by [republish] and re-homed by
    [repair].  With the defaults (replication 1, everything alive,
    infinite TTL) the index behaves exactly as the static version did.

    The module is a functor over the query language; all traffic flows
    through a {!Dht.Rpc} channel, whose optional {!Dht.Network.t} gives
    simulations and examples byte-accurate accounting for free. *)

module Key = Hashing.Key

module type S = Index_sig.S

module Make (Q : Query_sig.QUERY) : S with type query = Q.t
