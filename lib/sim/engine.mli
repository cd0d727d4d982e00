(** Concurrent session engine: many in-flight user sessions interleaved
    on the virtual clock, with optional singleflight coalescing of
    identical in-flight lookups.

    The sequential {!Runner} drives each session to completion before the
    next arrives; real deployments overlap them.  This engine schedules
    sessions as {!Walk.step} quanta on a {!Stdx.Event_queue}: arrivals
    come at the configured [query_rate], at most [concurrency] sessions
    hold a slot at once (later arrivals wait FIFO), and each quantum's
    RPC latency decides when that session resumes — so sessions genuinely
    interleave in virtual time.

    At [concurrency = 1] the engine is a plain call of {!Runner.run}, so
    it returns the sequential report: an empty [session_latency], a
    [peak_in_flight] of 1, and none of the engine's metric families.

    {b Coalescing.}  With [~coalesce:true], a lookup probe for a query
    string equal to one whose response is still in flight does not hit
    the network again: the follower pays only a small consultation ticket
    ({!P2pindex.Wire.consult_bytes}, billed as cache traffic), inherits
    the leader's answer, and resumes when that response lands.  Counted
    by [p2pindex_engine_coalesced_total] (read back by
    {!Runner.coalesced}); the in-flight and wait-queue depths are
    exported as [p2pindex_engine_in_flight] and
    [p2pindex_engine_wait_queue].  With a hot-spot workload and enough
    concurrency this strictly reduces normal traffic per query (the
    paper's Fig. 15 load concentration is what makes identical probes
    overlap). *)

val run :
  ?events:Workload.Query_gen.event list ->
  ?tracer:Obs.Trace.t ->
  ?phases:Obs.Phase.t ->
  ?concurrency:int ->
  ?coalesce:bool ->
  Runner.config ->
  Runner.report
(** [run config] with the defaults ([concurrency = 1], [coalesce =
    false]) is [Runner.run config].  [?events], [?tracer] and [?phases]
    behave as in {!Runner.run}; in concurrent mode the tracer
    records one trace per scheduling quantum rather than per session,
    since sessions interleave, and the profiled "walk" phase accumulates
    per quantum.  [concurrency] and [coalesce] are not checked here:
    {!Sharded.run} is the checked entry point ({!Sharded.validate}
    requires [concurrency >= 1], and [concurrency > 1] for coalescing).
    @raise Invalid_argument on a bad config (as {!Runner.run}). *)
