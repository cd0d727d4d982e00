(* The concurrent session engine: byte-for-byte degeneration to the
   sequential runner (static and churned, metrics snapshot included),
   singleflight coalescing on the hot-spot workload, byte conservation at
   any concurrency, and argument validation. *)

module Runner = Sim.Runner
module Engine = Sim.Engine
module Sharded = Sim.Sharded
module Summary = Stdx.Stats.Summary

let small_config =
  {
    Runner.default_config with
    node_count = 50;
    article_count = 400;
    query_count = 500;
    scheme = Bib.Schemes.Simple;
    policy = Cache.Policy.lru 10;
  }

(* Nonzero latency gives probes a virtual-time width (the coalescing
   window); no loss and a generous timeout keep every exchange intact, so
   traffic differences are scheduling and coalescing alone. *)
let latency_faults =
  Some { Runner.default_faults with latency_mean = 0.05; rpc_timeout = 50.0 }

let snapshot_string snapshot =
  Obs.Json.to_string (Obs.Export.snapshot_to_json snapshot)

let check_summary what a b =
  Alcotest.(check int) (what ^ " count") (Summary.count a) (Summary.count b);
  Alcotest.(check (float 0.0)) (what ^ " total") (Summary.total a) (Summary.total b);
  Alcotest.(check (float 0.0)) (what ^ " min") (Summary.min a) (Summary.min b);
  Alcotest.(check (float 0.0)) (what ^ " max") (Summary.max a) (Summary.max b)

let check_reports_equal (seq : Runner.report) (eng : Runner.report) =
  let open Runner in
  let check_int what f = Alcotest.(check int) what (f seq) (f eng) in
  check_int "request bytes" request_bytes;
  check_int "response bytes" response_bytes;
  check_int "cache bytes" cache_bytes;
  check_int "maintenance bytes" maintenance_bytes;
  check_int "publish bytes" (fun r -> r.publish_bytes);
  check_int "network messages" network_messages;
  check_int "hits" (fun r -> r.hits);
  check_int "hits at first node" (fun r -> r.hits_first_node);
  check_int "errors" (fun r -> r.errors);
  check_int "unreachable" (fun r -> r.unreachable);
  check_int "index bytes" (fun r -> r.index_bytes);
  check_int "index mappings" (fun r -> r.index_mappings);
  check_int "rpc calls" rpc_calls;
  check_int "rpc timeouts" rpc_timeouts;
  check_int "coalesced" coalesced;
  check_int "peak in flight" (fun r -> r.peak_in_flight);
  check_summary "interactions" seq.interactions eng.interactions;
  check_summary "error probes" seq.error_probes eng.error_probes;
  check_summary "session latency" seq.session_latency eng.session_latency;
  Alcotest.(check (array int)) "per-node touches" seq.node_touches eng.node_touches;
  Alcotest.(check (array int)) "per-node cached keys" seq.cached_keys eng.cached_keys;
  Alcotest.(check (array int)) "per-node regular keys" seq.regular_keys eng.regular_keys;
  Alcotest.(check string) "metrics snapshot" (snapshot_string seq.metrics)
    (snapshot_string eng.metrics)

(* The hard degeneration claim: concurrency 1 (coalescing off) is the
   sequential runner byte for byte — report and metrics snapshot. *)
let engine_degenerates_static () =
  let seq = Runner.run small_config in
  let eng = Engine.run ~concurrency:1 small_config in
  Alcotest.(check int) "no coalesced probes" 0 (Runner.coalesced eng);
  Alcotest.(check int) "no queued latency samples" 0
    (Summary.count eng.Runner.session_latency);
  Alcotest.(check int) "one session in flight" 1 eng.Runner.peak_in_flight;
  check_reports_equal seq eng

let engine_degenerates_churned () =
  let config =
    {
      small_config with
      faults = latency_faults;
      churn =
        Some
          {
            Runner.default_churn with
            churn_rate = 0.004;
            replication = 2;
            ttl = 60.0;
            republish_period = 20.0;
            repair_period = 8.0;
            query_rate = 20.0;
          };
    }
  in
  let seq = Runner.run config in
  let eng = Engine.run ~concurrency:1 config in
  check_reports_equal seq eng

(* The coalescing claim (the Fig. 15 hot spots made useful): with enough
   overlapping sessions, identical in-flight probes merge — the counter
   moves and normal traffic per query strictly drops, with only the small
   consultation tickets appearing as cache traffic. *)
let coalescing_reduces_normal_traffic () =
  let config =
    {
      small_config with
      policy = Cache.Policy.no_cache;
      faults = latency_faults;
    }
  in
  let plain = Engine.run ~concurrency:16 config in
  let merged = Engine.run ~concurrency:16 ~coalesce:true config in
  Alcotest.(check int) "no merges with coalescing off" 0 (Runner.coalesced plain);
  Alcotest.(check bool) "probes coalesced" true (Runner.coalesced merged > 0);
  Alcotest.(check bool) "sessions actually overlapped" true
    (plain.Runner.peak_in_flight > 1);
  Alcotest.(check bool) "normal traffic strictly reduced" true
    (Runner.normal_traffic_per_query merged < Runner.normal_traffic_per_query plain);
  Alcotest.(check bool) "followers billed consultation tickets" true
    (Runner.cache_bytes merged > Runner.cache_bytes plain)

(* Without coalescing the engine only reorders work: whatever the
   concurrency, the billed bytes are those of the sequential run.  (The
   workload is cache-free so sessions share no mutable state, and the
   generous timeout keeps the fault plan from dropping anything.) *)
let engine_conserves_bytes =
  let config =
    {
      small_config with
      query_count = 300;
      policy = Cache.Policy.no_cache;
      faults = latency_faults;
    }
  in
  let seq = lazy (Runner.run config) in
  QCheck.Test.make ~count:4 ~name:"engine conserves bytes at any concurrency"
    QCheck.(int_range 2 32)
    (fun concurrency ->
      let seq = Lazy.force seq in
      let eng = Engine.run ~concurrency config in
      let open Runner in
      request_bytes seq = request_bytes eng
      && response_bytes seq = response_bytes eng
      && cache_bytes seq = cache_bytes eng
      && network_messages seq = network_messages eng
      && Summary.count seq.interactions = Summary.count eng.interactions)

let engine_validates_arguments () =
  Alcotest.check_raises "concurrency 0 rejected"
    (Invalid_argument "Sharded.run: concurrency must be >= 1 (got 0)") (fun () ->
      ignore (Sharded.run ~concurrency:0 small_config));
  Alcotest.check_raises "coalescing alone rejected"
    (Invalid_argument
       "Sharded.run: coalescing needs concurrency > 1 (overlapping sessions to merge)")
    (fun () -> ignore (Sharded.run ~coalesce:true small_config));
  Alcotest.check_raises "zero queries rejected"
    (Invalid_argument "Runner.run: query_count must be >= 1 (got 0)") (fun () ->
      ignore (Runner.run { small_config with query_count = 0 }));
  Alcotest.check_raises "empty event list rejected"
    (Invalid_argument "Runner.run: query_count must be >= 1 (got 0)") (fun () ->
      ignore (Runner.run ~events:[] small_config))

(* The derived metrics never divide by a zero query count: a report whose
   interaction summary is empty yields zeros (and full availability), not
   NaNs. *)
let derived_metrics_survive_zero_queries () =
  let r = Runner.run { small_config with query_count = 10 } in
  let empty = { r with Runner.interactions = Summary.create () } in
  let finite what v = Alcotest.(check bool) (what ^ " is finite") false (Float.is_nan v) in
  finite "interactions mean" (Runner.interactions_mean empty);
  Alcotest.(check (float 0.0)) "normal traffic" 0.0
    (Runner.normal_traffic_per_query empty);
  Alcotest.(check (float 0.0)) "cache traffic" 0.0
    (Runner.cache_traffic_per_query empty);
  Alcotest.(check (float 0.0)) "maintenance traffic" 0.0
    (Runner.maintenance_traffic_per_query empty);
  Alcotest.(check (float 0.0)) "hit ratio" 0.0 (Runner.hit_ratio empty);
  Alcotest.(check (float 0.0)) "availability" 1.0 (Runner.availability empty)

(* --- The sharded engine: partition determinism and worker invariance. --- *)

(* One shard IS the engine run: report and metrics snapshot byte for byte. *)
let sharded_degenerates () =
  check_reports_equal (Sharded.run small_config) (Engine.run small_config)

(* Shard [s] of [shards] run alone, as a plain run of its slice. *)
let slice ?(config = small_config) ~shards s =
  Engine.run (Sharded.shard_config config ~shards s)

(* The worker axis is pure scheduling: at fixed shards, every domain
   count produces the identical merged report — per-node arrays and
   metrics snapshot included — and a slice run on another domain is the
   slice run alone. *)
let sharded_identical_across_domains () =
  let run domains = Sharded.run ~shards:4 ~domains small_config in
  let d1 = run 1 and d2 = run 2 and d4 = run 4 in
  check_reports_equal d1 d2;
  check_reports_equal d1 d4;
  let on_domains =
    Array.map Domain.join
      (Array.init 2 (fun s -> Domain.spawn (fun () -> slice ~shards:4 s)))
  in
  Array.iteri (fun s r -> check_reports_equal (slice ~shards:4 s) r) on_domains

(* The merge is a sum of isolated shards: every count of the merged
   report equals the sum over the slices run alone, its snapshot is the
   merge of theirs, and the per-node arrays concatenate in shard order. *)
let sharded_merge_is_shard_sum () =
  let merged = Sharded.run ~shards:3 small_config in
  let slices = List.init 3 (fun s -> slice ~shards:3 s) in
  let shard_sum f = List.fold_left (fun acc r -> acc + f r) 0 slices in
  Alcotest.(check int) "request bytes" (Runner.request_bytes merged)
    (shard_sum Runner.request_bytes);
  Alcotest.(check int) "network messages" (Runner.network_messages merged)
    (shard_sum Runner.network_messages);
  Alcotest.(check int) "errors" merged.Runner.errors
    (shard_sum (fun r -> r.Runner.errors));
  Alcotest.(check string) "snapshot is the merge of the slices'"
    (snapshot_string
       (Obs.Metrics.merge_snapshots (List.map (fun r -> r.Runner.metrics) slices)))
    (snapshot_string merged.Runner.metrics);
  Alcotest.(check int) "nodes covered" small_config.Runner.node_count
    (Array.length merged.Runner.node_touches);
  Alcotest.(check (array int)) "touches concatenate in shard order"
    (Array.concat (List.map (fun r -> r.Runner.node_touches) slices))
    merged.Runner.node_touches;
  Alcotest.(check int) "queries covered" small_config.Runner.query_count
    (Summary.count merged.Runner.interactions)

(* Property: over random shard/domain choices, the merged report only
   depends on the shard count — never on the worker count. *)
let sharded_worker_invariance =
  let tiny =
    {
      small_config with
      node_count = 40;
      article_count = 150;
      query_count = 200;
    }
  in
  QCheck.Test.make ~count:6 ~name:"sharded report independent of domains"
    QCheck.(pair (int_range 1 4) (int_range 1 4))
    (fun (shards, domains) ->
      let b = Sharded.run ~shards ~domains:1 tiny in
      let p = Sharded.run ~shards ~domains tiny in
      let open Runner in
      request_bytes b = request_bytes p
      && response_bytes b = response_bytes p
      && b.errors = p.errors
      && b.node_touches = p.node_touches
      && snapshot_string b.metrics = snapshot_string p.metrics)

let sharded_validates_arguments () =
  Alcotest.check_raises "zero shards rejected"
    (Invalid_argument "Sharded.run: shards must be >= 1 (got 0)") (fun () ->
      ignore (Sharded.run ~shards:0 small_config));
  Alcotest.check_raises "zero domains rejected"
    (Invalid_argument "Sharded.run: domains must be >= 1 (got 0)") (fun () ->
      ignore (Sharded.run ~domains:0 small_config));
  Alcotest.check_raises "empty shard rejected"
    (Invalid_argument
       "Sharded.run: shards 1000 need at least that many nodes, articles and queries \
        (got 50/400/500)") (fun () ->
      ignore (Sharded.run ~shards:1000 small_config));
  let churned =
    {
      small_config with
      churn = Some { Runner.default_churn with replication = 30 };
    }
  in
  Alcotest.check_raises "replication must fit the smallest shard"
    (Invalid_argument
       "Sharded.run: replication 30 does not fit the smallest of 4 shards (12 nodes per \
        shard)") (fun () ->
      ignore (Sharded.run ~shards:4 churned));
  Alcotest.check_raises "replication beyond the population rejected up front"
    (Invalid_argument
       "Runner.run: replication 30 exceeds node_count 20 (every replica needs a \
        distinct node)") (fun () ->
      ignore (Runner.run { churned with node_count = 20 }));
  Alcotest.check_raises "profiling needs one worker"
    (Invalid_argument
       "Sharded.run: profiling needs a single worker domain (GC counters are per-domain)")
    (fun () ->
      ignore
        (Sharded.run ~shards:4 ~domains:2 ~phases:(Obs.Phase.create ())
           small_config));
  Alcotest.(check bool) "a tracer needs one shard" true
    (Result.is_error (Sharded.validate ~shards:2 ~per_run:true small_config));
  Alcotest.(check bool) "a tracer runs unsharded" true
    (Result.is_ok (Sharded.validate ~per_run:true small_config));
  Alcotest.(check bool) "profiling runs sharded on one domain" true
    (Result.is_ok (Sharded.validate ~shards:4 ~profiled:true small_config))

let suite =
  [
    ( "engine:degeneration",
      [
        Alcotest.test_case "concurrency 1 = sequential (static)" `Quick
          engine_degenerates_static;
        Alcotest.test_case "concurrency 1 = sequential (churned)" `Quick
          engine_degenerates_churned;
      ] );
    ( "engine:coalescing",
      [
        Alcotest.test_case "coalescing reduces normal traffic" `Quick
          coalescing_reduces_normal_traffic;
        QCheck_alcotest.to_alcotest engine_conserves_bytes;
      ] );
    ( "engine:validation",
      [
        Alcotest.test_case "argument validation" `Quick engine_validates_arguments;
        Alcotest.test_case "zero-query derived metrics" `Quick
          derived_metrics_survive_zero_queries;
      ] );
    ( "engine:sharded",
      [
        Alcotest.test_case "one shard = engine run" `Quick sharded_degenerates;
        Alcotest.test_case "byte-identical across domains" `Quick
          sharded_identical_across_domains;
        Alcotest.test_case "merge is the shard sum" `Quick sharded_merge_is_shard_sum;
        QCheck_alcotest.to_alcotest sharded_worker_invariance;
        Alcotest.test_case "argument validation" `Quick sharded_validates_arguments;
      ] );
  ]
