(* The metric catalogue: every metric the benchmark reports, with its unit
   and direction; end-to-end metrics carry their regression bound, and
   every per-layer metric names the end-to-end metric it should move and
   the workloads it should move it on.  The repository's BENCHMARK.json
   lists the same metrics; the self-test keeps the two equal. *)

type better = Lower | Higher

let better_label = function Lower -> "lower" | Higher -> "higher"

type metric = { name : string; unit : string; better : better }

type e2e = { metric : metric; bound : float }

type layer = { layer : metric; moves : string; on : string list }

let e name unit better bound = { metric = { name; unit; better }; bound }

let end_to_end =
  [
    e "setup_s" "s" Lower 0.25;
    e "sessions_per_s" "sessions/s" Higher 0.25;
    e "peak_rss_mb" "MB" Lower 0.15;
  ]

let all_workloads = [ "paper-lru"; "churn-quorum"; "engine-prefix"; "scale-sharded" ]
let l name unit better moves on = { layer = { name; unit; better }; moves; on }
let sps = "sessions_per_s"
let lru = [ "paper-lru" ]
let cq = [ "churn-quorum" ]
let both = [ "paper-lru"; "churn-quorum" ]
let cached = [ "paper-lru"; "engine-prefix"; "scale-sharded" ]

let per_layer =
  [
    (* Traced lane. *)
    l "sim.runner.setup_s" "s" Lower "setup_s" all_workloads;
    l "sim.runner.setup_minor_words" "words" Lower "setup_s" all_workloads;
    l "workload.query_gen.next_event_ns" "ns" Lower sps both;
    l "churn.driver.advance_ns_per_session" "ns" Lower sps cq;
    l "churn.driver.advance_minor_words_per_session" "words" Lower sps cq;
    l "dht.rpc.deliver_until_ns_per_session" "ns" Lower sps cq;
    l "sim.walk.step_self_ns" "ns" Lower sps lru;
    l "sim.walk.step_self_minor_words" "words" Lower sps lru;
    l "sim.walk.steps_per_session" "count" Lower sps lru;
    l "p2pindex.index.lookup_step_ns" "ns" Lower sps both;
    l "p2pindex.index.lookup_step_minor_words" "words" Lower sps both;
    l "p2pindex.index.lookup_step_calls_per_session" "count" Lower sps both;
    l "p2pindex.index.lookup_useful_ratio" "ratio" Higher sps both;
    l "cache.shortcut_cache.install_ns_per_session" "ns" Lower sps lru;
    l "sim.runner.tally_ns" "ns" Lower sps lru;
    l "sim.runner.report_s" "s" Lower "setup_s" all_workloads;
    l "sim.runner.unreachable_ratio" "ratio" Lower sps cq;
    l "sim.session_wall_us.p50" "us" Lower sps both;
    l "sim.session_wall_us.p99" "us" Lower sps both;
    l "sim.session_wall_us.p999" "us" Lower sps both;
    l "sim.session_wall_us.n" "count" Higher sps both;
    l "bench.trace_overhead_ratio" "ratio" Lower sps all_workloads;
    (* Substrate replay; only Chord and the static table carry a workload. *)
    l "dht.static.responsible_ns" "ns" Lower sps cached;
    l "dht.static.responsible_minor_words" "words" Lower sps cached;
    l "dht.chord.responsible_ns" "ns" Lower sps cq;
    l "dht.chord.responsible_minor_words" "words" Lower sps cq;
    l "dht.pastry.responsible_ns" "ns" Lower sps [];
    l "dht.pastry.responsible_minor_words" "words" Lower sps [];
    l "dht.can.responsible_ns" "ns" Lower sps [];
    l "dht.can.responsible_minor_words" "words" Lower sps [];
    l "dht.kademlia.responsible_ns" "ns" Lower sps [];
    l "dht.kademlia.responsible_minor_words" "words" Lower sps [];
    (* Counts lane. *)
    l "minor_words_per_session" "words" Lower sps all_workloads;
    l "sim.phase.setup_s" "s" Lower "setup_s" all_workloads;
    l "sim.phase.walk_s" "s" Lower sps all_workloads;
    l "sim.phase.tally_s" "s" Lower sps all_workloads;
    l "sim.phase.report_s" "s" Lower "setup_s" all_workloads;
    l "sim.phase.setup_minor_words" "words" Lower "setup_s" all_workloads;
    l "sim.phase.walk_minor_words" "words" Lower sps all_workloads;
    l "sim.phase.walk_major_collections" "count" Lower sps all_workloads;
    l "dht.network.messages_per_session" "count" Lower sps all_workloads;
    l "dht.network.bytes_per_session" "bytes" Lower sps all_workloads;
    l "dht.rpc.calls_per_session" "count" Lower sps cq;
    l "dht.rpc.retries_per_session" "count" Lower sps cq;
    l "dht.rpc.exhausted_ratio" "ratio" Lower sps cq;
    l "cache.shortcut_cache.hit_ratio" "ratio" Higher sps cached;
    l "cache.shortcut_cache.evictions_per_session" "count" Lower sps cached;
    l "storage.quorum.read_repairs_per_session" "count" Lower sps cq;
    l "storage.anti_entropy.shipped_bytes_per_round" "bytes" Lower sps cq;
    l "storage.anti_entropy.digest_bytes_per_round" "bytes" Lower sps cq;
    l "churn.driver.events_per_session" "count" Lower sps cq;
    l "sim.engine.coalesced_per_session" "count" Higher sps [ "engine-prefix" ];
    l "prefix.prefix_index.covering_nodes_mean" "count" Lower sps [ "engine-prefix" ];
    (* The trace lane's reference runs of the command at one and at two
       worker domains. *)
    l "process.cpu_s" "s" Lower sps [ "scale-sharded" ];
    l "process.cpu_utilisation" "ratio" Higher sps [ "scale-sharded" ];
    l "sim.sharded.parallel_speedup" "x" Higher sps [ "scale-sharded" ];
  ]

let e2e_names = List.map (fun m -> m.metric.name) end_to_end
let layer_names = List.map (fun l -> l.layer.name) per_layer

let find_unit name =
  List.find_map
    (fun m -> if String.equal m.name name then Some m.unit else None)
    (List.map (fun m -> m.metric) end_to_end @ List.map (fun l -> l.layer) per_layer)
