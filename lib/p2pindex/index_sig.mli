(** The signature of the distributed query-to-query index, {!Index.S}:
    an interface-only unit, so the signature is written once. *)

module type S = sig
  type query

  type file = Storage.Block_store.file

  type t

  val create :
    ?network:Dht.Network.t ->
    ?rpc:Dht.Rpc.t ->
    ?metrics:Obs.Metrics.t ->
    ?tracer:Obs.Trace.t ->
    ?charge_route_hops:bool ->
    ?replication:int ->
    ?read_quorum:int ->
    ?write_quorum:int ->
    ?liveness:Dht.Liveness.t ->
    ?clock:(unit -> float) ->
    ?ttl:float ->
    resolver:Dht.Resolver.t ->
    unit ->
    t
  (** [create ~resolver ()] builds an empty index over the given substrate.
      When [network] is set, every lookup and publication is charged to it;
      [charge_route_hops] (default false) additionally bills substrate
      routing hops as maintenance traffic.

      All messaging flows through an {!Dht.Rpc} channel: [rpc] supplies a
      fault-injecting one (deadlines, retries, hedging — its plan decides
      which messages are lost or delayed); by default a private zero-plan
      channel over [network] is built, which degenerates byte-for-byte to
      direct accounting.  A custom [rpc] should be created over the same
      network, resolver and hop-charging flag.

      [replication] (default 1) is the number of replica nodes every entry
      is written to (the primary and its ring successors); [liveness]
      (default: a private all-alive set) is the shared alive-set a churn
      driver flips; [clock] (default: constantly [0.0]) supplies virtual
      time; [ttl] (default [infinity]) is the soft-state lifetime stamped
      on every published entry.

      Passing [read_quorum] or [write_quorum] turns the Dynamo-style
      quorum machinery on.  It changes two things about a lookup step
      (see {!lookup_step}): every answer carries, and is billed, its
      replica's version vectors, and the step waits for [read_quorum]
      (default 1) non-empty answers, reconciles the consulted replicas
      by version vector and read-repairs the diverged ones.  With
      [metrics] it counts reads, stale reads (answers a
      fully-consistent read would have improved on) and read repairs
      under [p2pindex_quorum_*]; every write counts its live-replica
      acknowledgements against [write_quorum] (default [replication]).
      Without either parameter nothing quorum-related is registered or
      billed.

      With [metrics], every lookup step bumps
      [p2pindex_index_lookup_steps_total] (labelled by outcome), the
      [p2pindex_index_route_hops] histogram and the
      [p2pindex_index_lookup_retries] histogram (replica-list attempts
      beyond the first), and every search observes its interaction count
      and result-set size.  With [tracer], every lookup step appends an
      {!Obs.Trace.span} to the open trace.
      @raise Invalid_argument when [replication < 1] or [liveness] covers
      a different node count than the resolver. *)

  val resolver : t -> Dht.Resolver.t

  val rpc : t -> Dht.Rpc.t
  (** The messaging channel every lookup and publication goes through. *)

  val replication : t -> int

  val read_quorum : t -> int
  val write_quorum : t -> int

  val liveness : t -> Dht.Liveness.t
  (** The shared alive-set: fail/revive nodes here and every lookup sees
      it.  After an abrupt failure, also call {!drop_node_state}. *)

  val metrics : t -> Obs.Metrics.t option

  val tracer : t -> Obs.Trace.t option
  (** The observability hooks passed at {!create} time, so layers above
      (sessions, the simulation runner) can join the same trace stream. *)

  val key_of_query : query -> Hashing.Key.t
  (** [h(q)]: the DHT key of a query's canonical string. *)

  val node_of_query : t -> query -> int
  (** The primary responsible node, dead or alive. *)

  val node_of_string : t -> string -> int
  (** {!node_of_query} for an already-rendered query string, so hot
      paths that hold the rendering never re-render. *)

  val live_node_of_string : t -> string -> int
  (** The acting responsible node for an already-rendered query
      string: the first live replica's index, or [-1] when the whole
      replica set is dead. *)

  exception Covering_violation of { parent : string; child : string }
  (** Raised when trying to register a mapping whose parent does not cover
      its child — the property that makes the system "resilient to arbitrary
      linking" (Section IV-D). *)

  val insert_mapping : t -> parent:query -> child:query -> bool
  (** Register [(parent ; child)] at the nodes responsible for [h(parent)].
      Returns false when the mapping already existed (its TTL is refreshed).
      @raise Covering_violation if [covers parent child] does not hold. *)

  val store_file : t -> msd:query -> file -> unit
  (** Store the file payload at the nodes responsible for its most specific
      descriptor. *)

  val publish : t -> scheme:query Scheme.t -> msd:query -> file -> unit
  (** Store the file and install every index entry the scheme derives from
      its descriptor: {!publish_batch} of one document. *)

  val publish_batch :
    t -> scheme:query Scheme.t -> msd:('a -> query) -> file:('a -> file) -> 'a array -> unit
  (** Publish every document of the array, in order: each one's file is
      stored, then all their index entries are installed with one store
      write per distinct parent key.  The result — every replica's
      entries, versions and tombstones, the traffic billed and the write
      acknowledgements counted — is exactly that of calling {!store_file}
      and then {!insert_mapping} on each scheme edge, document by
      document, at the clock reading the batch starts at.
      @raise Covering_violation on an edge whose parent does not cover its
      child, after the edges before it were installed. *)

  val republish_batch :
    t -> scheme:query Scheme.t -> msd:('a -> query) -> file:('a -> file) -> 'a array -> unit
  (** Soft-state refresh of every document of the array, in order: each
      one's file is refreshed in place and every index entry {!publish}
      would install is re-sent, stamped with a fresh TTL, with one store
      write per distinct parent key of every eight documents.  Replicas
      that lost an entry get it back.  Each file and each scheme edge is
      billed as maintenance to every live replica, whether or not the
      replica already held it.  The result is exactly that of one
      [insert_unique] per file and per edge, document by document, each
      billed that way. *)

  val repair : t -> int
  (** Full-state repair pass over both stores: re-home entries onto live
      replicas that lost them (billing each copied entry as maintenance);
      returns the number of entries re-homed.  Tombstone-aware: a
      replica whose empty state postdates the source's copy is left
      alone (see {!Storage.Replicated_store.repair}). *)

  val anti_entropy : t -> int
  (** Digest-based divergence repair over both stores
      ({!Storage.Anti_entropy}): replica pairs exchange per-range digests
      (billed as maintenance; the match is decided by comparing the
      states) and ship only the diverged keys' entries.  Catches what
      {!repair} cannot — stale copies on replicas that still hold
      {e something} — and converges removals through the tombstones.
      Returns the number of entries shipped; with quorum
      metrics on, the [p2pindex_antientropy_*] counters record digest
      vs shipped vs would-be full-state bytes. *)

  val drop_node_state : t -> int -> unit
  (** Forget every mapping and file a node held — an abrupt, crash-stop
      failure.  The caller flips the node in {!liveness}. *)

  val unpublish : t -> scheme:query Scheme.t -> msd:query -> unit
  (** Delete the file and clean up: mappings whose child no longer leads
      anywhere are removed, recursively (Section IV-C). *)

  type step =
    | File of file  (** The query was a most specific descriptor. *)
    | Children of query list  (** More specific queries, covered by the input. *)
    | Not_indexed  (** No entry anywhere for this query. *)

  val lookup_step : t -> query -> step
  (** One user-system interaction: one walk over the query key's replica
      set.  The walk asks the replicas in placement order, one RPC call
      each, and stops once R of them answered non-empty: R is
      [read_quorum] under quorum and 1 otherwise.  A dead replica costs
      its request; one that answers empty is passed over, since a later
      replica can still hold the entry; at most [replication] calls are
      made.  A call may hedge to the next replica; a hedge target that
      already answered non-empty is not asked again, one that answered
      empty is.  Without quorum the step is the first non-empty answer
      as it is; under quorum it is the reconcile of every replica that
      answered.  With [tracer], the step's one span bills every request
      the walk sent and every answer it received. *)

  val lookup_step_rendered : t -> rendered:string -> query -> step
  (** {!lookup_step} when the caller already rendered the query:
      [rendered] must be [Q.to_string q].  The session walk renders each
      hop once and threads the string here. *)

  val search : ?interactions:int ref -> ?max_results:int -> t -> query -> (query * file) list
  (** Automated lookup: explore the index breadth-first from the query
      and return every reachable file with its descriptor, in discovery
      order.  A query reached twice is probed once; the search stops once
      [max_results] files are found.  Every {!lookup_step} performed
      increments [interactions]. *)

  val search_with_generalization :
    ?interactions:int ref ->
    ?max_results:int ->
    ?generalization_budget:int ->
    t ->
    query ->
    (query * file) list
  (** Like {!search}, but when the query is not indexed, generalize it
      (breadth-first over [Q.generalizations], at most
      [generalization_budget] probes of distinct queries, default 64)
      until a generalization answers with children or with a file the
      query covers, then specialize back down — following only children
      compatible with the original query — and keep the files it covers.
      A generalization probe answered with children is recorded with the
      [generalized] outcome label. *)

  val mapping_count : t -> int

  val iter_mappings : t -> (parent_key:Hashing.Key.t -> query -> unit) -> unit
  (** Visit every registered mapping (for audits and invariant checks):
      the DHT key it is filed under and the child query it maps to. *)

  val index_bytes : t -> int
  (** Storage footprint of all index entries under the wire model, summed
      from the entries' cached lengths. *)

  val mapping_totals : t -> int * int
  (** {!mapping_count} and {!index_bytes} from one walk of the index. *)

  val entry_length_mismatches : t -> (string * int) list
  (** Audit of the render-once invariant: every entry physically held on
      any replica (dead nodes and expired entries included) whose cached
      length differs from its rendering's — a mapping's child against
      its canonical string, a file against its name — as (rendering,
      cached length) pairs.  Empty when every write, repair and sync
      carried the right length. *)

  val keys_per_node : t -> int array
  (** Distinct keys (index keys and stored files) physically held per
      node — replicas included. *)

  val entries_per_node : t -> int array
  (** Registered entries (index mappings plus stored files) per node — the
      "regular keys per node" measure of Section V-f, where every
      registration under a key counts. *)

  val file_count : t -> int
  val file_bytes : t -> int

  val mapping_store : t -> query Storage.Replicated_store.t
  val file_store : t -> file Storage.Replicated_store.t
  (** The two replicated stores behind the index, for audits and tests
      that compare raw replica states.  Writing to them directly bypasses
      the index's traffic accounting. *)
end
