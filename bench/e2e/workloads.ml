(* The benchmark's workloads.  Each is one [simulate] command line plus
   the same run written as a [Sim.Runner.config], which the traced lane
   replays in process.  The traced lane checks the two against each other
   (its metrics snapshot must equal the command's [--metrics-out]), so the
   flag-to-config mirror below cannot drift silently.

   Sizes are cut down from the paper's 50,000 sessions so that one run
   takes one to three seconds and runs at several seeds fit in one timed
   measurement. *)

module R = Sim.Runner

type t = {
  name : string;
  why : string;
  queries : int;  (** Sessions one run simulates. *)
  shards : int;
  args : string list;  (** [simulate] flags, without [--seed]. *)
  sequential_args : string list;
      (** The flags of the sequential run the traced lane reproduces:
          [args] without the engine's concurrency, where [args] has it. *)
  config : int64 -> R.config;  (** [sequential_args] as a runner config. *)
  churn_free : bool;  (** Every session must reach its target. *)
  digest_seed42 : string;  (** SHA-1 (hex) of the stdout of [args] at seed 42. *)
}

let sizes ~nodes ~articles ~queries =
  [ "--nodes"; string_of_int nodes; "--articles"; string_of_int articles;
    "--queries"; string_of_int queries ]

let base ~nodes ~articles ~queries seed =
  { R.default_config with node_count = nodes; article_count = articles; query_count = queries; seed }

(* [set_flag flag value args] replaces the value after [flag], or appends
   the pair when [args] lacks [flag]. *)
let set_flag flag value args =
  let rec go = function
    | f :: _ :: rest when String.equal f flag -> Some (f :: value :: rest)
    | x :: rest -> Option.map (List.cons x) (go rest)
    | [] -> None
  in
  match go args with Some args -> args | None -> args @ [ flag; value ]

(* The set-up-only form: one session per shard, so the run is the fixed
   cost of building the substrate, publishing the corpus and reporting. *)
let setup_args w = set_flag "--queries" (string_of_int w.shards) w.args

(* [args] on [n] worker domains.  Domains only schedule shards, so the
   report must not change; on a one-shard workload they have nothing to
   schedule at all. *)
let with_domains n args = set_flag "--domains" (string_of_int n) args

let paper_lru =
  let nodes, articles, queries = (500, 10_000, 10_000) in
  let args = sizes ~nodes ~articles ~queries @ [ "--policy"; "lru30" ] in
  {
    name = "paper-lru";
    why =
      "the paper's Section V setup: 500 nodes, 10k articles, simple scheme, LRU-30 \
       shortcut caches on the static substrate; walk, index and cache, no churn or faults";
    queries;
    shards = 1;
    args;
    sequential_args = args;
    config = (fun seed -> { (base ~nodes ~articles ~queries seed) with policy = Cache.Policy.lru 30 });
    churn_free = true;
    digest_seed42 = "004ee44e7605db37fc2a32cb9f7894e0107b52f3";
  }

let churn_quorum =
  let nodes, articles, queries = (500, 2_000, 4_000) in
  let flags =
    [ "--substrate"; "chord"; "--churn-rate"; "0.01"; "--replication"; "3"; "--republish"; "40";
      "--read-quorum"; "2"; "--write-quorum"; "2"; "--anti-entropy-interval"; "25";
      "--loss-rate"; "0.05"; "--latency"; "0.01"; "--rpc-retries"; "2" ]
  in
  let args = sizes ~nodes ~articles ~queries @ flags in
  {
    name = "churn-quorum";
    why =
      "Chord routing, churn, lossy RPC with retries, R=W=2 quorum reads with read repair, \
       republish and anti-entropy; the replicated-store path, no shortcut cache";
    queries;
    shards = 1;
    args;
    sequential_args = args;
    config =
      (fun seed ->
        {
          (base ~nodes ~articles ~queries seed) with
          substrate = R.Chord;
          churn =
            Some
              { R.default_churn with churn_rate = 0.01; replication = 3; republish_period = 40.0 };
          faults =
            Some
              { R.default_faults with
                loss_rate = 0.05; latency_mean = 0.01; rpc_retries = 2; fault_replication = 3 };
          quorum = Some { R.read_quorum = 2; write_quorum = 2; anti_entropy_interval = 25.0 };
        });
    churn_free = false;
    digest_seed42 = "fb3344e7d9225eca524f01dd12c8044251b16d77";
  }

let engine_prefix =
  let nodes, articles, queries = (500, 10_000, 5_000) in
  let sequential_args =
    sizes ~nodes ~articles ~queries
    @ [ "--scheme"; "prefix"; "--multicast"; "--policy"; "lru30"; "--latency"; "0.05";
        "--rpc-timeout"; "50" ]
  in
  {
    name = "engine-prefix";
    why =
      "16 sessions in flight on the engine with coalesced probes, routed prefix \
       queries and multicast; RPC latency makes sessions overlap";
    queries;
    shards = 1;
    args = sequential_args @ [ "--concurrency"; "16"; "--coalesce" ];
    sequential_args;
    config =
      (fun seed ->
        {
          (base ~nodes ~articles ~queries seed) with
          scheme = Bib.Schemes.Prefix;
          prefix = Some { R.prefix_len = 1; multicast = true };
          mix = Workload.Query_gen.prefix_mix R.default_config.mix;
          policy = Cache.Policy.lru 30;
          faults = Some { R.default_faults with latency_mean = 0.05; rpc_timeout = 50.0 };
        });
    churn_free = true;
    digest_seed42 = "48567f159195f572cdcb1419b3de8c39d085d9b2";
  }

let scale_sharded =
  let nodes, articles, queries = (40_000, 8_000, 20_000) in
  let args =
    sizes ~nodes ~articles ~queries @ [ "--shards"; "4"; "--domains"; "2"; "--policy"; "lru30" ]
  in
  {
    name = "scale-sharded";
    why =
      "40k nodes in 4 shards on 2 domains: per-node state built at scale, the sharded \
       merge and domain parallelism; no churn or faults";
    queries;
    shards = 4;
    args;
    sequential_args = args;
    config = (fun seed -> { (base ~nodes ~articles ~queries seed) with policy = Cache.Policy.lru 30 });
    churn_free = true;
    digest_seed42 = "e4de8aa5baf676ceb17ce16493318404c140a142";
  }

let all = [ paper_lru; churn_quorum; engine_prefix; scale_sharded ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
