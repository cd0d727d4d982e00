(** The Section V simulation: a P2P network of peers running the indexing
    layer, fed with the realistic query workload.

    One run builds the substrate, publishes the corpus under an indexing
    scheme, resets the traffic counters, then drives [query_count] user
    sessions.  Each session follows the paper's interactive model: the user
    knows which article they want but asks with partial information; at
    every step they contact the node responsible for the current query,
    take a cache shortcut when one exists, otherwise pick from the result
    set the (unique) query that leads towards their target, until the file
    is returned.  Non-indexed queries are recovered through
    generalization.  Successful sessions install shortcuts according to the
    caching policy. *)

type substrate = Static | Chord | Pastry | Can | Kademlia

type popularity_model =
  | Fitted_cdf
      (** The paper's fitted model: CDF [F(i) = 0.063 i^0.3], clamped and
          normalized over the catalog. *)
  | Zipf of float  (** Classic Zipf with the given exponent (ablations). *)

type churn_config = {
  churn_rate : float;
      (** Mean failures per node per virtual second; a node's session
          length is exponential with mean [1 / churn_rate], and a failed
          node stays away for an exponential 30 s on average.  0
          degenerates to the static run: no events, the clock never
          advances, TTLs never bite (byte-for-byte identical at
          replication 1). *)
  replication : int;  (** Replica nodes per index entry (Section IV-D). *)
  ttl : float;  (** Soft-state lifetime, seconds; [infinity] = hard state. *)
  republish_period : float;
      (** Seconds between global republish rounds (publishers re-send
          their entries with fresh TTLs). *)
  repair_period : float;
      (** Seconds between anti-entropy passes re-homing replicas. *)
  query_rate : float;
      (** Queries per virtual second — what couples the workload to the
          churn clock. *)
}

val default_churn : churn_config
(** Moderate churn: rate 0.002/s (mean session ~8 min), replication 3,
    TTL 300 s, republish every 100 s, repair every 25 s, 50 queries/s. *)

type fault_config = {
  loss_rate : float;
      (** Probability each message (request, response or one-way copy) is
          silently dropped.  Applied per direction: a lookup exchange
          survives with [(1-p)^2]. *)
  duplicate_rate : float;
      (** Probability a surviving message is delivered twice (a duplicated
          request runs the handler again — idempotence is exercised — and
          the duplicate answer is suppressed and counted). *)
  latency_mean : float;
      (** Mean of the per-direction exponential latency, virtual seconds;
          0 keeps messages instant.  Round-trips above the RPC timeout
          count as timeouts even when nothing was lost. *)
  rpc_timeout : float;  (** Deadline per attempt, virtual seconds. *)
  rpc_retries : int;  (** Extra attempts after the first timeout. *)
  hedge : bool;
      (** Send a hedged second request to the next replica when the first
          attempt runs past half the timeout. *)
  fault_replication : int;
      (** Replica nodes per index entry; gives retries somewhere to go
          when a replica's messages keep getting lost. *)
}

val default_faults : fault_config
(** All rates zero, timeout 0.5 s, 2 retries, hedging off,
    replication 1 — a block that changes nothing until a rate is raised
    (see {!fault_active}). *)

type prefix_config = {
  prefix_len : int;
      (** Last-name characters an [Author_prefix] query keeps; within
          [1, 20] (the key width). *)
  multicast : bool;
      (** Answer prefix queries (and install the range index) through
          the spanning tree instead of per-covering-node exchanges. *)
}

type quorum_config = {
  read_quorum : int;
      (** Live replicas a lookup step must hear a non-empty answer from
          before reconciling (R of the N/R/W model); within
          [1, replication]. *)
  write_quorum : int;
      (** Live-replica acknowledgements a write needs to count as fully
          acknowledged (W); within [1, replication].  Writes always reach
          every live replica — W decides only what is {e counted} as an
          under-acknowledged write. *)
  anti_entropy_interval : float;
      (** Seconds between digest-based anti-entropy passes; 0 keeps the
          full-state repair walk on [repair_period].  A positive interval
          replaces the repair walk on the churn driver's schedule, so it
          requires active churn. *)
}

type config = {
  node_count : int;
  article_count : int;
  query_count : int;
  seed : int64;
  scheme : Bib.Schemes.kind;
  policy : Cache.Policy.t;
  substrate : substrate;
  charge_route_hops : bool;
      (** Bill substrate routing hops as maintenance traffic (off by
          default: the paper treats the substrate as orthogonal). *)
  mix : Workload.Query_gen.mix;
  popularity : popularity_model;
  churn : churn_config option;
      (** [None] (the default) is the static run.  [Some c] runs the
          discrete-event churned mode: a virtual clock paced by
          [c.query_rate], node failures and rejoins scheduled from the
          session distributions, soft-state TTLs, periodic republication
          and repair.  An abrupt failure loses the node's index shard and
          shortcut cache; lookups fail over down the replica list. *)
  faults : fault_config option;
      (** [None] (the default) is the fault-free run.  [Some f] routes
          every lookup, cache-hit exchange and shortcut install through a
          fault-injecting RPC channel: seeded message loss, duplication
          and latency, with timeouts, bounded exponential-backoff retries
          and optional hedged requests on top.  The fault clock shares
          the churn clock, so both can run together.  Seeded from
          [seed + 7_777_777], so a faulty run replays bit-for-bit. *)
  prefix : prefix_config option;
      (** Options for the routed prefix scheme; only legal with
          [scheme = Prefix] (which without them uses single-letter
          prefixes and multicast).  A prefix run publishes the
          order-preserving range index next to the hashed corpus and
          answers [Author_prefix] queries by routing to the covering
          nodes — see [Prefix.Prefix_index].  The range index is a
          replicated store like the hashed index's: it honours the
          churn/fault blocks' replication and TTL, republication
          refreshes it, and a churned failure drops its node's share, or
          pauses the node under an active quorum block. *)
  quorum : quorum_config option;
      (** [None] (the default) keeps the historical first-live-replica
          reads.  [Some q] runs Dynamo-style quorum consistency over the
          replication the churn/fault blocks configure: lookups consult
          [q.read_quorum] live replicas, reconcile their version vectors
          and read-repair divergence; writes are counted against
          [q.write_quorum]; a positive [q.anti_entropy_interval] swaps
          the periodic full-state repair for digest-based anti-entropy.
          Churned failures become pauses — the node rejoins with the (by
          then lagging) state it held instead of rejoining empty — so
          the stale reads the quorum machinery masks actually occur.
          [Some { read_quorum = 1; write_quorum = replication;
          anti_entropy_interval = 0. }] is inactive (see
          {!quorum_active}) and degenerates byte-for-byte to [None]. *)
}

val default_config : config
(** The paper's setup: 500 nodes, 10,000 articles, 50,000 queries, simple
    scheme, no cache, static substrate, BibFinder mix, fitted popularity,
    no churn, no faults. *)

val fault_active : config -> bool
(** Whether the fault block actually perturbs the run (any rate positive
    or hedging on).  When false — including [faults = Some
    default_faults] — the run takes the zero-plan fast path and its
    output is byte-identical to a run with [faults = None]. *)

val effective_replication : config -> int
(** The replication factor the index is created with: the larger of the
    churn and fault blocks' asks, 1 when neither is present. *)

val validate : config -> (unit, string) result
(** Check every setting of a configuration before anything is built.
    [Error msg] names the offending setting and its value, e.g.
    ["ttl must be > 0 (got 0)"]; {!run} raises [Invalid_argument] with
    that message prefixed by ["Runner.run: "].  Under churn, a
    maintenance period or session mean too small for the clock to
    advance by it at the horizon [query_count / query_rate] is an
    error too: its events would never let the clock move on. *)

val quorum_active : config -> bool
(** Whether the quorum block actually changes the run: R above 1, W
    below the effective replication, or anti-entropy on.  When false the
    quorum parameters never reach the index, no consistency metric
    family is registered, and the run's report and metrics snapshot are
    byte-identical to a run with [quorum = None]. *)

type report = {
  config : config;
  interactions : Stdx.Stats.Summary.t;
      (** User-system interactions per query (Fig. 11). *)
  hits : int;  (** Sessions resolved through a cached shortcut (Fig. 13). *)
  hits_first_node : int;  (** Hits found at the first node contacted. *)
  errors : int;  (** Sessions that touched a non-indexed query (Table I). *)
  error_probes : Stdx.Stats.Summary.t;
      (** Extra probes per erroring session ("one extra interaction"). *)
  unreachable : int;
      (** Sessions that could not locate their target (0 in a correct
          system — exposed so the tests can assert it). *)
  session_latency : Stdx.Stats.Summary.t;
      (** Arrival-to-completion virtual seconds per session; empty for a
          sequential run, whose sessions never queue. *)
  peak_in_flight : int;
      (** High-water mark of concurrently held session slots; 1 for a
          sequential run. *)
  node_touches : int array;  (** Per-node query accesses (Fig. 15). *)
  cached_keys : int array;  (** Per-node shortcut counts at the end (Fig. 14). *)
  regular_keys : int array;  (** Per-node index+file keys (Section V-f). *)
  index_bytes : int;  (** Index storage footprint (Section V-B). *)
  article_bytes : int;  (** Stored article payload bytes. *)
  index_mappings : int;
  publish_bytes : int;  (** Maintenance traffic spent building the indexes. *)
  metrics : Obs.Metrics.snapshot;
      (** End-of-run snapshot of the run's registry: network traffic,
          lookup-step outcomes, route-hop / interaction / result-set
          histograms, cache hit/miss/eviction counters, substrate health.
          The only store of the run's counts: the accessors below read
          them from here. *)
}

val run :
  ?events:Workload.Query_gen.event list ->
  ?tracer:Obs.Trace.t ->
  ?phases:Obs.Phase.t ->
  config ->
  report
(** [run config] generates the workload from the config; [run ~events]
    replays the given event list instead (e.g. a loaded {!Workload.Trace}),
    overriding [query_count] with its length.  The events' targets must
    belong to the corpus the config generates (same [article_count] and
    [seed]).

    Every run emits into a fresh metrics registry of its own; the final
    snapshot is returned in the report.  With [tracer], each user session
    becomes one trace whose spans (including cache-shortcut hits) carry
    the same wire-model byte counts charged to the network.

    With [phases], the run is profiled: its stages accumulate into the
    collector as "setup" (substrate build + corpus publication), "walk"
    (the query loop), "tally" (per-session outcome recording) and
    "report" (snapshot assembly), and the report's metrics snapshot
    additionally carries the [p2pindex_phase_*] gauges (per-phase elapsed
    time and allocation) and the [p2pindex_gc_*] gauges (whole-run
    [Gc.quick_stat] deltas plus heap size).  Without [phases] — the
    default — none of those families exist and no clock or GC state is
    read, preserving the byte-for-byte snapshot guarantees (profiled
    elapsed times are wall-clock and therefore not reproducible; see
    {!Obs.Phase}).
    @raise Invalid_argument on a nonsensical configuration — including
    [query_count <= 0] (so an empty [events] list is rejected too): a
    zero-query run has no meaningful per-query metrics. *)

val prefix_entries : Bib.Article.t array -> (string * Bib.Bib_query.t) list
(** What the routed prefix scheme publishes into its
    {!Prefix.Prefix_index}: one [(last name, author query)] entry per
    distinct author, sorted by last name, then by query, so publication
    order is independent of corpus order. *)

(** {1 Counts}

    Each reads one counter family of the report's {!report.metrics}
    snapshot (0 when the run never registered it).  Traffic counts cover
    the query phase: the network counters restart after corpus
    publication. *)

val request_bytes : report -> int
val response_bytes : report -> int
val cache_bytes : report -> int
(** Shortcut-installation traffic (Fig. 12, dark). *)

val maintenance_bytes : report -> int
val network_messages : report -> int
(** Total messages during the query phase. *)

val rpc_calls : report -> int
(** Request/response exchanges attempted. *)

val rpc_exhausted : report -> int
(** Calls that failed every attempt. *)

val rpc_timeouts : report -> int
(** Attempts that timed out (lost or too slow). *)

val rpc_retries : report -> int
(** Backed-off re-attempts after a timeout. *)

val rpc_hedges : report -> int
(** Hedged second requests fired. *)

val rpc_hedges_won : report -> int
(** Hedges that answered before the primary. *)

val rpc_duplicates_suppressed : report -> int
(** Duplicate deliveries discarded. *)

val rpc_lost_messages : report -> int
(** Messages the fault plan dropped. *)

val quorum_reads : report -> int
(** Lookup steps that took the quorum path. *)

val quorum_read_repairs : report -> int
(** Consulted replicas overwritten by read repair. *)

val quorum_writes : report -> int
(** Coordinated writes counted against W. *)

val quorum_write_failures : report -> int
(** Writes acknowledged by fewer than [write_quorum] live replicas. *)

val antientropy_rounds : report -> int
(** Anti-entropy passes run. *)

val antientropy_digest_bytes : report -> int
(** Bytes spent on digest messages. *)

val antientropy_shipped_bytes : report -> int
(** Bytes of diverged entries anti-entropy actually shipped. *)

val antientropy_full_state_bytes : report -> int
(** Bytes a digestless full-state exchange would have shipped over the
    same rounds — the baseline the digests are saving against. *)

val coalesced : report -> int
(** Lookup probes that rode another in-flight probe's response (the
    concurrent engine's coalescing). *)

(** {1 Derived metrics} *)

val interactions_mean : report -> float
val hit_ratio : report -> float
val first_node_hit_share : report -> float
val normal_traffic_per_query : report -> float
(** Request + response bytes per query. *)

val cache_traffic_per_query : report -> float
val cached_keys_mean : report -> float
val cached_keys_max : report -> int
val caches_full_share : report -> float
(** Fraction of nodes whose bounded cache is at capacity (0 when
    unbounded). *)

val caches_empty_share : report -> float
val regular_keys_mean : report -> float

val availability : report -> float
(** Fraction of sessions that located their target — 1.0 in a static run
    (the system is correct), degrading gracefully with churn. *)

val maintenance_traffic_per_query : report -> float
(** Maintenance bytes (republish, repair, routing overhead) per query. *)

val lookup_success_rate : report -> float
(** Fraction of RPC exchanges that got an answer within their retry
    budget; 1.0 when no faults were injected (zero calls recorded). *)

val stale_read_rate : report -> float
(** Fraction of quorum reads that were stale; 0 when the run made no
    quorum reads. *)

(** {1 Profile gauges} *)

type gc_mark
(** The process's GC counters at one instant. *)

val gc_mark : unit -> gc_mark

val export_profile : Obs.Metrics.t -> Obs.Phase.t -> since:gc_mark -> unit
(** Set the [p2pindex_phase_*] gauges from the collector's totals and the
    [p2pindex_gc_*] gauges from the GC activity [since] the mark (and the
    heap size now).  A profiled run does this once, just before its
    report snapshots the registry. *)

val is_profile_family : string -> bool
(** Whether a metric family is one {!export_profile} sets. *)

(** {1 Engine support}

    The run decomposed into its phases, so the concurrent {!Engine} can
    reuse the exact setup, per-session tallying and report assembly this
    runner performs, and a caller can replay {!run}'s loop step by step.
    Not a stable end-user surface. *)

module Internal : sig
  type env
  (** Everything one run holds: configuration, registry, network,
      virtual clock, RPC channel, published index, shortcut caches,
      churn driver and workload generator. *)

  val setup :
    ?events:Workload.Query_gen.event list ->
    ?tracer:Obs.Trace.t ->
    ?phases:Obs.Phase.t ->
    config ->
    env
  (** Validate the config, then build the substrate, publish the corpus
      and reset the traffic counters — every side effect {!run} performs
      before its query loop, in the same order.  [phases] arms profiling:
      {!make_report} will export the per-phase and GC gauge families into
      the registry before snapshotting (and nothing else changes).
      @raise Invalid_argument as {!run} does. *)

  val config : env -> config
  (** The resolved configuration ([query_count] reflects [events]). *)

  val registry : env -> Obs.Metrics.t
  val rpc : env -> Dht.Rpc.t
  (** The index's channel, {!Bib.Bib_index.rpc}. *)

  val index : env -> Bib.Bib_index.t
  (** The walk context's index. *)

  val clock_ref : env -> float ref
  (** The virtual clock every layer reads; the RPC channel advances it
      in place as calls consume latency. *)

  val walk_ctx : env -> Walk.ctx

  val tracer : env -> Obs.Trace.t option
  (** The index's tracer, {!Bib.Bib_index.tracer}. *)

  val advance_churn : env -> until:float -> unit
  (** Fire every churn event due by [until] and land the clock there; a
      no-op (clock untouched) when the run has no active churn. *)

  val next_event : env -> Workload.Query_gen.event
  (** The next session to run: replayed [events] first, then the
      generator. *)

  type tally
  (** Per-session outcome aggregation (interactions, hits, errors,
      unreachable) — order-insensitive, so concurrent completions may
      record in completion order. *)

  val tally_create : unit -> tally
  val tally_record : tally -> Walk.outcome -> unit

  val tally_latency : tally -> latency:float -> in_flight:int -> unit
  (** Record a concurrent session's arrival-to-completion time and the
      sessions in flight as it completes, itself included.  Every admitted
      session completes, so the largest [in_flight] seen is the run's
      peak. *)

  val make_report : env -> tally -> report
  (** Snapshot the registry and assemble the final report — identical to
      the sequential runner's epilogue. *)
end
