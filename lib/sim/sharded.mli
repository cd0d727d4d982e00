(** Domain-sharded simulation: the node population partitioned into
    isolated shards, run in parallel on OCaml 5 domains, with an ordered
    deterministic merge — the scale-out mode that makes million-node
    populations tractable on one machine.

    A sharded run decomposes the configured population into [shards]
    {e logical} partitions: shard [s] simulates its own slice of the
    nodes, articles and queries (block partition, sizes differing by at
    most one) with its own decorrelated PRNG stream (Weyl seed mixing;
    shard 0 keeps the caller's seed).  Shards share nothing — each is a
    complete {!Engine} run with its own substrate, index, caches and
    metrics registry — which is exactly what makes the parallelism
    deterministic.

    [domains] is the {e worker} axis: how many OCaml domains execute the
    shards (clamped to the shard count).  Because shards are isolated and
    the merge folds their results in shard order 0, 1, ..., S-1, the
    worker count can never influence a byte of the output:

    {ul
    {- [~domains:n] produces byte-identical reports for every [n] — the
       assignment of shards to workers is pure scheduling;}
    {- [~shards:1] is a plain {!Engine.run} call (and so, at
       [concurrency = 1], a {!Runner.run} call): the single shard is the
       whole population under the original seed.}}

    Merge semantics: every count merges through
    {!Obs.Metrics.merge_snapshots}, the only store of counts; the report
    record adds what the registry does not hold — the tallies (counts
    add, interaction/latency summaries merge as streams, the in-flight
    peak takes the max), the per-node arrays (concatenated in shard
    order, so shard [s]'s nodes occupy one dense block of the merged id
    space) and the storage totals (added).

    What sharding changes: shards cannot share cache entries, replicas
    or query traffic, so a sharded report is the sum of [S] smaller
    networks, not a bit-for-bit replay of the unsharded one — the same
    modelling trade every spatially-decomposed simulation makes.  Scale
    results across shard counts are compared at {e fixed} [shards]. *)

val shard_config : Runner.config -> shards:int -> int -> Runner.config
(** [shard_config config ~shards s] is shard [s]'s slice of [config]: its
    block of the nodes, articles and queries, under its mixed seed. *)

val validate :
  ?shards:int ->
  ?domains:int ->
  ?per_run:bool ->
  ?profiled:bool ->
  ?concurrency:int ->
  ?coalesce:bool ->
  Runner.config ->
  (unit, string) result
(** Check a run's options against its configuration, with {!run}'s
    defaults; [per_run] says whether replayed events, a shared metrics
    registry or a tracer is passed, [profiled] whether a phase collector
    is.  [Error msg] names the offending option and value when
    [shards < 1] or [domains < 1]; when [concurrency < 1], or coalescing
    is asked for at concurrency 1 (it needs overlapping sessions to
    merge); when any shard would be empty ([shards] exceeds the node,
    article or query count); when the smallest shard cannot hold the
    effective replication factor; when a per-run facility is combined
    with [shards > 1]; or when profiling runs on more than one worker
    domain (GC counters are per-domain in OCaml 5).  The configuration
    itself is {!Runner.validate}'s to check. *)

val run :
  ?shards:int ->
  ?domains:int ->
  ?events:Workload.Query_gen.event list ->
  ?metrics:Obs.Metrics.t ->
  ?tracer:Obs.Trace.t ->
  ?phases:Obs.Phase.t ->
  ?concurrency:int ->
  ?coalesce:bool ->
  Runner.config ->
  Runner.report
(** [run config] with the defaults ([shards = 1], [domains = 1]) is
    {!Engine.run}.  [concurrency] and [coalesce] apply within every
    shard, as in {!Engine.run}; [events], [metrics] and [tracer] are
    passed to the single run and need [shards = 1].  [phases] profiles
    the run (per-stage allocation accounting, summed over shards) and
    needs a single worker domain.
    @raise Invalid_argument when {!validate} rejects the options, or on a
    bad config (as {!Runner.run}). *)
