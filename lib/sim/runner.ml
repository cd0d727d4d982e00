module Q = Bib.Bib_query
module Article = Bib.Article
module Index = Bib.Bib_index
module Schemes = Bib.Schemes
module Query_gen = Workload.Query_gen
module Policy = Cache.Policy
module Shortcut = Cache.Shortcut_cache
module Network = Dht.Network
module Summary = Stdx.Stats.Summary

type substrate = Static | Chord | Pastry | Can | Kademlia

let substrate_label = function
  | Static -> "static"
  | Chord -> "chord"
  | Pastry -> "pastry"
  | Can -> "can"
  | Kademlia -> "kademlia"

type popularity_model = Fitted_cdf of float | Zipf of float

type churn_config = {
  churn_rate : float;
  heavy_tailed : bool;
  downtime_mean : float;
  replication : int;
  ttl : float;
  republish_period : float;
  repair_period : float;
  query_rate : float;
}

let default_churn =
  {
    churn_rate = 0.002;
    heavy_tailed = false;
    downtime_mean = 30.0;
    replication = 3;
    ttl = 300.0;
    republish_period = 100.0;
    repair_period = 25.0;
    query_rate = 50.0;
  }

type fault_config = {
  loss_rate : float;
  duplicate_rate : float;
  latency_mean : float;  (* exponential per-direction latency; 0 = instant *)
  rpc_timeout : float;
  rpc_retries : int;
  hedge : bool;
  fault_replication : int;
}

let default_faults =
  {
    loss_rate = 0.0;
    duplicate_rate = 0.0;
    latency_mean = 0.0;
    rpc_timeout = 0.5;
    rpc_retries = 2;
    hedge = false;
    fault_replication = 1;
  }

type prefix_config = { prefix_len : int; multicast : bool }

let default_prefix = { prefix_len = 1; multicast = true }

type quorum_config = {
  read_quorum : int;
  write_quorum : int;
  anti_entropy_interval : float;
}

type config = {
  node_count : int;
  article_count : int;
  query_count : int;
  seed : int64;
  scheme : Schemes.kind;
  policy : Policy.t;
  substrate : substrate;
  charge_route_hops : bool;
  mix : Query_gen.mix;
  popularity : popularity_model;
  churn : churn_config option;
  faults : fault_config option;
  prefix : prefix_config option;
  quorum : quorum_config option;
}

let default_config =
  {
    node_count = 500;
    article_count = 10_000;
    query_count = 50_000;
    seed = 42L;
    scheme = Schemes.Simple;
    policy = Policy.no_cache;
    substrate = Static;
    charge_route_hops = false;
    mix = Query_gen.bibfinder_mix;
    popularity = Fitted_cdf Stdx.Power_law.paper_alpha;
    churn = None;
    faults = None;
    prefix = None;
    quorum = None;
  }

(* A fault block whose rates are all zero and that never hedges changes
   nothing: the plan is the zero plan and the RPC layer takes its
   byte-identical fast path. *)
let fault_active cfg =
  match cfg.faults with
  | None -> false
  | Some f ->
      f.loss_rate > 0. || f.duplicate_rate > 0. || f.latency_mean > 0. || f.hedge

(* The replication factor the index is created with: the larger of the
   churn and fault blocks' asks, 1 when neither is present. *)
let effective_replication cfg =
  let churn_replication =
    match cfg.churn with Some c -> c.replication | None -> 1
  in
  let fault_replication =
    match cfg.faults with Some f -> f.fault_replication | None -> 1
  in
  Stdlib.max churn_replication fault_replication

(* A quorum block asking for R = 1, W = replication and no anti-entropy
   is the historical behavior spelled out: the index never takes the
   quorum path and the block changes nothing, byte for byte. *)
let quorum_active cfg =
  match cfg.quorum with
  | None -> false
  | Some q ->
      q.read_quorum > 1
      || q.write_quorum < effective_replication cfg
      || q.anti_entropy_interval > 0.

(* Every setting is checked here, before anything is built, so nothing
   unchecked reaches the substrate, the RPC channel or the fault plan.
   A message is formatted only on failure: a valid configuration costs
   no allocation.  NaN fails every comparison, so [not (x >= 0.)]
   rejects it too. *)
exception Invalid_config of string

let reject fmt = Printf.ksprintf (fun msg -> raise (Invalid_config msg)) fmt
let require_count name v = if v < 1 then reject "%s must be >= 1 (got %d)" name v
let require_positive name v = if not (v > 0.) then reject "%s must be > 0 (got %g)" name v

let require_rate name v =
  if not (v >= 0. && v <= 1.) then reject "%s must be in [0, 1] (got %g)" name v

let require_finite name v =
  if not (Float.is_finite v && v >= 0.) then
    reject "%s must be finite and >= 0 (got %g)" name v

let require_quorum name v ~replication =
  if v < 1 || v > replication then
    reject "%s must be within [1, replication %d] (got %d)" name replication v

let check_config cfg =
  require_count "node_count" cfg.node_count;
  require_count "article_count" cfg.article_count;
  require_count "query_count" cfg.query_count;
  let replication = effective_replication cfg in
  (* Caught here rather than deep inside replica resolution, where an
     oversized factor used to surface as a confusing ring wrap. *)
  if replication > cfg.node_count then
    reject "replication %d exceeds node_count %d (every replica needs a distinct node)"
      replication cfg.node_count;
  (match cfg.churn with
  | None -> ()
  | Some c ->
      require_finite "churn_rate" c.churn_rate;
      require_count "replication" c.replication;
      require_positive "downtime_mean" c.downtime_mean;
      require_positive "ttl" c.ttl;
      require_positive "republish_period" c.republish_period;
      require_positive "repair_period" c.repair_period;
      require_positive "query_rate" c.query_rate);
  (match cfg.faults with
  | None -> ()
  | Some f ->
      require_rate "loss_rate" f.loss_rate;
      require_rate "duplicate_rate" f.duplicate_rate;
      require_finite "latency_mean" f.latency_mean;
      if not (Float.is_finite f.rpc_timeout && f.rpc_timeout > 0.) then
        reject "rpc_timeout must be finite and > 0 (got %g)" f.rpc_timeout;
      if f.rpc_retries < 0 then reject "rpc_retries must be >= 0 (got %d)" f.rpc_retries;
      require_count "fault_replication" f.fault_replication);
  (match cfg.prefix with
  | None -> ()
  | Some p ->
      if cfg.scheme <> Schemes.Prefix then reject "prefix options require the Prefix scheme";
      if p.prefix_len < 1 || p.prefix_len > Prefix.Prefix_key.max_bytes then
        reject "prefix_len must be within [1, %d] (got %d)" Prefix.Prefix_key.max_bytes
          p.prefix_len);
  match cfg.quorum with
  | None -> ()
  | Some q ->
      require_quorum "read_quorum" q.read_quorum ~replication;
      require_quorum "write_quorum" q.write_quorum ~replication;
      if not (q.anti_entropy_interval >= 0.) then
        reject "anti_entropy_interval must be >= 0 (got %g)" q.anti_entropy_interval;
      let churn_active = match cfg.churn with Some c -> c.churn_rate > 0. | None -> false in
      if q.anti_entropy_interval > 0. && not churn_active then
        reject
          "anti_entropy_interval %g requires active churn (the churn driver schedules the \
           passes)"
          q.anti_entropy_interval

let validate cfg =
  match check_config cfg with () -> Ok () | exception Invalid_config msg -> Error msg

type report = {
  config : config;
  interactions : Summary.t;
  hits : int;
  hits_first_node : int;
  errors : int;
  error_probes : Summary.t;
  unreachable : int;
  session_latency : Summary.t;
  peak_in_flight : int;
  node_touches : int array;
  cached_keys : int array;
  regular_keys : int array;
  index_bytes : int;
  article_bytes : int;
  index_mappings : int;
  publish_bytes : int;
  metrics : Obs.Metrics.snapshot;
}

(* ------------------------------------------------------------------ *)
(* One user session is a {!Walk}: the runner drives each walk to
   completion in arrival order; the {!Engine} interleaves many. *)

let build_resolver ?metrics cfg =
  match cfg.substrate with
  | Static ->
      Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:cfg.seed ~node_count:cfg.node_count ())
  | Chord ->
      Dht.Chord.resolver
        (Dht.Chord.create_network ?metrics ~seed:cfg.seed ~node_count:cfg.node_count ())
  | Pastry ->
      Dht.Pastry.resolver (Dht.Pastry.create_network ~seed:cfg.seed ~node_count:cfg.node_count ())
  | Can ->
      Dht.Can.resolver (Dht.Can.create_network ~seed:cfg.seed ~node_count:cfg.node_count ())
  | Kademlia ->
      Dht.Kademlia.resolver
        (Dht.Kademlia.create_network ~seed:cfg.seed ~node_count:cfg.node_count ())

(* ------------------------------------------------------------------ *)
(* The routed prefix scheme's range index: one (last-name, author-query)
   entry per distinct author, filed under the order-preserving key of the
   last name.  The entry list is sorted, so publication order — and with
   it every byte of traffic — is independent of corpus iteration order. *)

let prefix_entries articles =
  Array.to_list articles
  |> List.concat_map (fun (a : Article.t) ->
         List.map
           (fun (x : Article.author) -> (x.Article.last, Q.author_q x))
           a.authors)
  |> List.sort_uniq (fun (t1, q1) (t2, q2) ->
         match String.compare t1 t2 with 0 -> Q.compare q1 q2 | c -> c)

let publish_prefix ~multicast pindex articles =
  let entries = prefix_entries articles in
  if multicast then
    ignore
      (Prefix.Prefix_index.publish_multicast pindex entries
        : Prefix.Multicast.stats option)
  else
    List.iter
      (fun (term, q) -> Prefix.Prefix_index.publish pindex ~term q)
      entries

(* ------------------------------------------------------------------ *)
(* Profile gauges: the phase collector's totals plus GC accounting over
   the run — deltas since a mark, plus the heap size at export time.
   Only exported for profiled runs: collection counts and heap size
   depend on the process's prior heap state, so an unconditional export
   would break the byte-for-byte snapshot guarantees (churn-0,
   zero-plan, domain-count invariance). *)

type gc_mark = {
  stat : Gc.stat;
  minor_words : float;  (* quick_stat's minor_words only advances at minor GCs *)
}

let gc_mark () = { stat = Gc.quick_stat (); minor_words = Gc.minor_words () }

let export_profile registry phases ~since =
  let minor_now = Gc.minor_words () in
  let now = Gc.quick_stat () in
  let d = Obs.Bench_report.gc_delta ~before:since.stat ~after:now in
  let set name help v = Obs.Metrics.Gauge.set (Obs.Metrics.gauge registry ~help name) v in
  set "p2pindex_gc_minor_words" "Minor-heap words allocated during the run"
    (minor_now -. since.minor_words);
  set "p2pindex_gc_promoted_words"
    "Words promoted from the minor to the major heap during the run"
    d.Obs.Bench_report.promoted_words;
  set "p2pindex_gc_major_words"
    "Major-heap words allocated during the run (promotions included)"
    d.Obs.Bench_report.major_words;
  set "p2pindex_gc_minor_collections" "Minor collections during the run"
    (float_of_int d.Obs.Bench_report.minor_collections);
  set "p2pindex_gc_major_collections" "Major collections during the run"
    (float_of_int d.Obs.Bench_report.major_collections);
  set "p2pindex_gc_heap_words" "Major-heap size at report time, words"
    (float_of_int now.Gc.heap_words);
  Obs.Phase.to_metrics phases registry

let is_profile_family name =
  String.starts_with ~prefix:"p2pindex_phase_" name
  || String.starts_with ~prefix:"p2pindex_gc_" name

(* Everything a run needs, factored out so the concurrent {!Engine} runs
   the exact setup, tallying and report assembly this runner does. *)
module Internal = struct
  type env = {
    cfg : config;  (* post-[events] override *)
    registry : Obs.Metrics.t;
    net : Network.t;
    clock_ref : float ref;
    liveness : Dht.Liveness.t;
    rpc : Dht.Rpc.t;
    index : Index.t;
    articles : Article.t array;
    publish_bytes : int;
    caches : Q.t Shortcut.t array;
    driver : (churn_config * Churn.Driver.t) option;
    prefix_index : (prefix_config * Q.t Prefix.Prefix_index.t) option;
    gen : Query_gen.t;
    ctx : Walk.ctx;
    tracer : Obs.Trace.t option;
    phases : Obs.Phase.t option;
    gc_mark : gc_mark;  (* GC counters at setup, for end-of-run deltas *)
    mutable remaining_events : Query_gen.event list;
  }

  let setup ?events ?metrics ?tracer ?phases cfg =
    let gc_mark = gc_mark () in
    let cfg =
      match events with
      | Some list -> { cfg with query_count = List.length list }
      | None -> cfg
    in
    (match validate cfg with Ok () -> () | Error msg -> invalid_arg ("Runner.run: " ^ msg));
  (* A registry per run unless the caller shares one: every layer below
     (network, substrate, index, caches) emits into it. *)
  let registry = match metrics with Some r -> r | None -> Obs.Metrics.create () in
  Obs.Metrics.Gauge.set
    (Obs.Metrics.gauge registry ~help:"Run configuration (labels carry the setup)"
       ~labels:
         [
           ("scheme", Schemes.label cfg.scheme);
           ("substrate", substrate_label cfg.substrate);
           ("policy", Policy.label cfg.policy);
         ]
       "p2pindex_run_info")
    1.0;
  Obs.Log.event "run_start"
    [
      ("scheme", Obs.Json.String (Schemes.label cfg.scheme));
      ("substrate", Obs.Json.String (substrate_label cfg.substrate));
      ("policy", Obs.Json.String (Policy.label cfg.policy));
      ("nodes", Obs.Json.Int cfg.node_count);
      ("articles", Obs.Json.Int cfg.article_count);
      ("queries", Obs.Json.Int cfg.query_count);
    ];
  let resolver = build_resolver ~metrics:registry cfg in
  let net = Network.create ~metrics:registry ~node_count:cfg.node_count () in
  (* Churn plumbing.  A rate of 0 degenerates completely: no driver, the
     virtual clock never advances, TTLs never bite — the run is the static
     run (byte-for-byte, at replication 1). *)
  let churn_active =
    match cfg.churn with Some c -> c.churn_rate > 0. | None -> false
  in
  let clock_ref = ref 0.0 in
  let clock () = !clock_ref in
  let liveness = Dht.Liveness.create ~node_count:cfg.node_count in
  let replication = effective_replication cfg in
  let ttl =
    match cfg.churn with Some c when churn_active -> c.ttl | Some _ | None -> infinity
  in
  (* The RPC channel every lookup goes through.  Without an active fault
     block this is a zero-plan channel — the byte-identical fast path —
     and its metric families stay unregistered so snapshots match the
     pre-fault output exactly. *)
  let faulty = fault_active cfg in
  let plan =
    match cfg.faults with
    | Some f when faulty ->
        Faults.Plan.create
          ~seed:(Int64.add cfg.seed 7_777_777L)
          (Faults.Plan.spec ~loss_rate:f.loss_rate
             ~duplicate_rate:f.duplicate_rate
             ~latency:
               (if f.latency_mean > 0. then
                  Faults.Plan.Exponential { mean = f.latency_mean }
                else Faults.Plan.No_latency)
             ())
    | Some _ | None -> Faults.Plan.zero
  in
  let rpc_config =
    match cfg.faults with
    | None -> Dht.Rpc.default_config
    | Some f ->
        {
          Dht.Rpc.default_config with
          timeout = f.rpc_timeout;
          retries = f.rpc_retries;
          hedge = f.hedge;
          hedge_delay = f.rpc_timeout /. 2.0;
        }
  in
  let rpc =
    Dht.Rpc.create ~network:net
      ?metrics:(if faulty then Some registry else None)
      ~plan ~config:rpc_config
      ~clock:
        { Dht.Rpc.now = clock; advance = (fun dt -> clock_ref := !clock_ref +. dt) }
      ~resolver ~charge_route_hops:cfg.charge_route_hops ()
  in
  (* An inactive quorum block (R = 1, W = replication, no anti-entropy)
     must not reach the index at all: passing either parameter flips it
     onto the quorum read path and registers the consistency metric
     families, and the degeneration guarantee promises neither. *)
  let quorum = if quorum_active cfg then cfg.quorum else None in
  let index =
    Index.create ~rpc ~metrics:registry ?tracer
      ~charge_route_hops:cfg.charge_route_hops ~replication
      ?read_quorum:(Option.map (fun q -> q.read_quorum) quorum)
      ?write_quorum:(Option.map (fun q -> q.write_quorum) quorum)
      ~liveness ~clock ~ttl ~resolver ()
  in
  let articles =
    Bib.Corpus.generate ~seed:cfg.seed (Bib.Corpus.default_config ~article_count:cfg.article_count)
  in
  Index.publish_corpus index ~kind:cfg.scheme articles;
  (* The prefix scheme's range index is published alongside the hashed
     corpus, so its installs land in the same pre-reset maintenance
     bucket ([publish_bytes]) as everything else. *)
  let prefix_index =
    match cfg.scheme with
    | Schemes.Prefix ->
        let pcfg = Option.value ~default:default_prefix cfg.prefix in
        let pindex =
          Prefix.Prefix_index.create ~rpc ~metrics:registry ~liveness
            ~render:Q.to_string ~resolver ()
        in
        publish_prefix ~multicast:pcfg.multicast pindex articles;
        Some (pcfg, pindex)
    | Schemes.Simple | Schemes.Flat | Schemes.Complex | Schemes.Complex_ac ->
        None
  in
  let publish_bytes = Network.bytes net Network.Maintenance in
  Network.reset net;
  let caches =
    (* The cache counters are fetched from the registry once and shared
       by every node's cache.  With caching off no walk ever reads or
       writes a cache (the policy guards every access), so all nodes can
       share one never-touched instance: at million-node scale this
       avoids node_count empty LRU structures, and the registry contents
       are identical either way. *)
    let instruments = Shortcut.instruments registry in
    let create () =
      Shortcut.create ~instruments ~clock ~ttl ~capacity:cfg.policy.Policy.capacity ()
    in
    if Policy.caches_enabled cfg.policy then Array.init cfg.node_count (fun _ -> create ())
    else Array.make cfg.node_count (create ())
  in
  let driver =
    match cfg.churn with
    | Some c when churn_active ->
        let session_mean = 1.0 /. c.churn_rate in
        let session =
          if c.heavy_tailed then Churn.Lifetime.pareto ~mean:session_mean ()
          else Churn.Lifetime.exponential ~mean:session_mean
        in
        (* With anti-entropy on, its passes replace the full-state repair
           walk on the driver's repair schedule, at the requested
           interval. *)
        let repair_period =
          match cfg.quorum with
          | Some q when q.anti_entropy_interval > 0. -> q.anti_entropy_interval
          | Some _ | None -> c.repair_period
        in
        Some
          ( c,
            Churn.Driver.create ~metrics:registry
              ~seed:(Int64.add cfg.seed 9_999_991L) ~liveness
              {
                Churn.Driver.session;
                downtime = Churn.Lifetime.exponential ~mean:c.downtime_mean;
                republish_period = c.republish_period;
                repair_period;
              } )
    | Some _ | None -> None
  in
    let popularity =
      match cfg.popularity with
      | Fitted_cdf alpha -> Stdx.Power_law.fitted_cdf ~alpha ~n:cfg.article_count ()
      | Zipf s -> Stdx.Power_law.zipf ~s ~n:cfg.article_count
    in
    let gen =
      Query_gen.create ~mix:cfg.mix ~popularity
        ~prefix_len:
          (match prefix_index with
          | Some (pcfg, _) -> pcfg.prefix_len
          | None -> 1)
        ~articles
        ~seed:(Int64.add cfg.seed 1_000_003L) ()
    in
    let prefix_route =
      Option.map
        (fun (pcfg, pindex) p ->
          (* The routed exchange bills the network inside the prefix index
             (possibly several messages when the covering set or the
             multicast tree has more than one node).  One span carries the
             whole exchange, so summing span bytes over a trace file still
             reproduces the network byte counters exactly — span {e count}
             may undercount request messages on multi-node coverings. *)
          let req0 = Network.bytes net Network.Request
          and resp0 = Network.bytes net Network.Response in
          let results =
            Prefix.Prefix_index.query ~multicast:pcfg.multicast pindex
              ~prefix:p
          in
          (match tracer with
          | None -> ()
          | Some tracer ->
              let node =
                match
                  Prefix.Prefix_index.covering_nodes pindex ~prefix:p
                with
                | n :: _ -> n
                | [] -> 0
              in
              let outcome =
                if results = [] then Obs.Trace.Not_found else Obs.Trace.Refined
              in
              Obs.Trace.span tracer
                ~query:(Q.to_string (Q.Author_last_prefix p))
                ~node
                ~result_count:(List.length results)
                ~request_bytes:(Network.bytes net Network.Request - req0)
                ~response_bytes:(Network.bytes net Network.Response - resp0)
                ~outcome ());
          match results with
          | [] -> Index.Not_indexed
          | rs -> Index.Children (List.map snd rs))
        prefix_index
    in
    let ctx =
      {
        Walk.policy = cfg.policy;
        rpc;
        index;
        caches;
        liveness;
        tracer;
        prefix_route;
      }
    in
    {
      cfg;
      registry;
      net;
      clock_ref;
      liveness;
      rpc;
      index;
      articles;
      publish_bytes;
      caches;
      driver;
      prefix_index;
      gen;
      ctx;
      tracer;
      phases;
      gc_mark;
      remaining_events = Option.value ~default:[] events;
    }

  let config env = env.cfg
  let registry env = env.registry
  let rpc env = env.rpc
  let index env = env.index
  let clock_ref env = env.clock_ref
  let walk_ctx env = env.ctx
  let tracer env = env.tracer

  (* Advance virtual time to [until], firing every churn event due before
     it.  Abrupt failures lose the node's index shard and its shortcut
     cache; republication and repair restore soft state on live nodes.
     Without a churn driver this is a no-op — the clock is left alone, as
     the static run never advances it. *)
  let advance_churn env ~until =
    match env.driver with
    | None -> ()
    | Some (_c, d) ->
        Churn.Driver.run_until d ~until
          ~on_fail:(fun ~time node ->
            env.clock_ref := time;
            (* Crash-stop churn loses the node's index shard; under an
               active quorum block a failure is a pause instead — the
               node rejoins with the (by then lagging) state it held.
               A rejoined-empty replica answers empty and the walk fails
               over anyway; a lagging one silently serves stale entries,
               which is exactly the divergence quorum reads and
               anti-entropy exist to mask and measure. *)
            if not (quorum_active env.cfg) then
              Index.drop_node_state env.index node;
            Option.iter
              (fun (_, p) -> Prefix.Prefix_index.drop_node_state p node)
              env.prefix_index;
            Shortcut.clear env.caches.(node))
          ~on_join:(fun ~time _node -> env.clock_ref := time)
          ~on_republish:(fun ~time ->
            env.clock_ref := time;
            Index.republish_corpus env.index ~kind:env.cfg.scheme env.articles;
            (* Refresh entry-by-entry regardless of the multicast setting:
               soft-state republication bills only the entries a failed
               node actually lost, which a subtree-priced tree message
               cannot express. *)
            Option.iter
              (fun (_, p) -> publish_prefix ~multicast:false p env.articles)
              env.prefix_index)
          ~on_repair:(fun ~time ->
            env.clock_ref := time;
            match env.cfg.quorum with
            | Some q when q.anti_entropy_interval > 0. ->
                ignore (Index.anti_entropy env.index : int)
            | Some _ | None -> ignore (Index.repair env.index : int));
        env.clock_ref := until

  let next_event env =
    match env.remaining_events with
    | event :: rest ->
        env.remaining_events <- rest;
        event
    | [] -> Query_gen.next env.gen

  type tally = {
    interactions : Summary.t;
    error_probes : Summary.t;
    mutable hits : int;
    mutable hits_first_node : int;
    mutable errors : int;
    mutable unreachable : int;
    session_latency : Summary.t;
    mutable peak_in_flight : int;
  }

  let tally_create () =
    {
      interactions = Summary.create ();
      error_probes = Summary.create ();
      hits = 0;
      hits_first_node = 0;
      errors = 0;
      unreachable = 0;
      session_latency = Summary.create ();
      peak_in_flight = 1;
    }

  let tally_record t (outcome : Walk.outcome) =
    Summary.add_int t.interactions outcome.steps;
    (match outcome.hit_position with
    | Some p ->
        t.hits <- t.hits + 1;
        if p = 1 then t.hits_first_node <- t.hits_first_node + 1
    | None -> ());
    if outcome.probes_failed > 0 then begin
      t.errors <- t.errors + 1;
      Summary.add_int t.error_probes outcome.probes_failed
    end;
    if not outcome.found then t.unreachable <- t.unreachable + 1

  let tally_latency t ~latency ~in_flight =
    Summary.add t.session_latency latency;
    if in_flight > t.peak_in_flight then t.peak_in_flight <- in_flight

  let make_report env tally =
    (match env.phases with
    | Some p ->
        (* The report phase's own cost is still accumulating; its gauges
           export as zero here and are readable from the collector after
           the run. *)
        export_profile env.registry p ~since:env.gc_mark
    | None -> ());
    let index_mappings, index_bytes = Index.mapping_totals env.index in
    {
      config = env.cfg;
      interactions = tally.interactions;
      hits = tally.hits;
      hits_first_node = tally.hits_first_node;
      errors = tally.errors;
      error_probes = tally.error_probes;
      unreachable = tally.unreachable;
      session_latency = tally.session_latency;
      peak_in_flight = tally.peak_in_flight;
      node_touches = Network.touches env.net;
      cached_keys = Array.map Shortcut.size env.caches;
      regular_keys = Index.entries_per_node env.index;
      index_bytes;
      article_bytes = Index.file_bytes env.index;
      index_mappings;
      publish_bytes = env.publish_bytes;
      metrics = Obs.Metrics.snapshot env.registry;
    }
end

let run ?events ?metrics ?tracer ?phases cfg =
  let env =
    Obs.Phase.span_opt phases "setup" (fun () ->
        Internal.setup ?events ?metrics ?tracer ?phases cfg)
  in
  let cfg = Internal.config env in
  let tally = Internal.tally_create () in
  for i = 1 to cfg.query_count do
    let outcome =
      Obs.Phase.span_opt phases "walk" (fun () ->
          (match env.Internal.driver with
          | Some (c, _) ->
              Internal.advance_churn env ~until:(float_of_int i /. c.query_rate)
          | None -> ());
          (* Delayed fire-and-forget messages (cache installs under latency)
             land once the clock has passed their arrival time.  A no-op on the
             zero plan, whose outbox stays empty. *)
          ignore
            (Dht.Rpc.deliver_until env.Internal.rpc ~now:!(env.Internal.clock_ref)
              : int);
          let event = Internal.next_event env in
          Option.iter
            (fun tr ->
              Obs.Trace.begin_trace tr ~root:(Q.to_string event.Query_gen.query))
            env.Internal.tracer;
          let outcome = Walk.run env.Internal.ctx event in
          Option.iter Obs.Trace.end_trace env.Internal.tracer;
          outcome)
    in
    Obs.Phase.span_opt phases "tally" (fun () -> Internal.tally_record tally outcome)
  done;
  ignore (Dht.Rpc.flush_deliveries env.Internal.rpc : int);
  Obs.Phase.span_opt phases "report" (fun () -> Internal.make_report env tally)

(* ------------------------------------------------------------------ *)
(* Counts, read from the run's metrics snapshot. *)

let count r name = Obs.Metrics.counter_total r.metrics name

let category_bytes r category =
  Obs.Metrics.counter_value r.metrics
    ~labels:[ ("category", Network.category_label category) ]
    "p2pindex_network_bytes_total"

let request_bytes r = category_bytes r Network.Request
let response_bytes r = category_bytes r Network.Response
let cache_bytes r = category_bytes r Network.Cache_update
let maintenance_bytes r = category_bytes r Network.Maintenance
let network_messages r = count r "p2pindex_network_messages_total"
let rpc_calls r = count r "p2pindex_rpc_calls_total"
let rpc_exhausted r = count r "p2pindex_rpc_exhausted_total"
let rpc_timeouts r = count r "p2pindex_rpc_timeouts_total"
let rpc_retries r = count r "p2pindex_rpc_retries_total"
let rpc_hedges r = count r "p2pindex_rpc_hedges_total"
let rpc_hedges_won r = count r "p2pindex_rpc_hedges_won_total"
let rpc_duplicates_suppressed r = count r "p2pindex_rpc_duplicates_suppressed_total"
let rpc_lost_messages r = count r "p2pindex_rpc_lost_messages_total"
let quorum_reads r = count r "p2pindex_quorum_reads_total"
let quorum_stale_reads r = count r "p2pindex_quorum_stale_reads_total"
let quorum_read_repairs r = count r "p2pindex_quorum_read_repairs_total"
let quorum_writes r = count r "p2pindex_quorum_writes_total"
let quorum_write_failures r = count r "p2pindex_quorum_write_failures_total"
let antientropy_rounds r = count r "p2pindex_antientropy_rounds_total"
let antientropy_digest_bytes r = count r "p2pindex_antientropy_digest_bytes_total"
let antientropy_shipped_bytes r = count r "p2pindex_antientropy_shipped_bytes_total"

let antientropy_full_state_bytes r =
  count r "p2pindex_antientropy_full_state_bytes_total"

let coalesced r = count r "p2pindex_engine_coalesced_total"

(* ------------------------------------------------------------------ *)
(* Derived metrics.  A report can legitimately carry zero queries (e.g.
   one assembled in tests); every per-query ratio is defined as 0 there
   instead of dividing by zero — [run] itself rejects [query_count = 0]
   up front. *)

let queries r = Summary.count r.interactions

let per_query r total =
  let n = queries r in
  if n = 0 then 0.0 else float_of_int total /. float_of_int n

let interactions_mean r = Summary.mean r.interactions

let hit_ratio r = per_query r r.hits

let first_node_hit_share r =
  if r.hits = 0 then 0.0 else float_of_int r.hits_first_node /. float_of_int r.hits

let normal_traffic_per_query r = per_query r (request_bytes r + response_bytes r)

let cache_traffic_per_query r = per_query r (cache_bytes r)

let array_mean a =
  if Array.length a = 0 then 0.0
  else float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int (Array.length a)

let cached_keys_mean r = array_mean r.cached_keys

let cached_keys_max r = Array.fold_left Stdlib.max 0 r.cached_keys

let caches_full_share r =
  match r.config.policy.Policy.capacity with
  | None -> 0.0
  | Some cap ->
      let full = Array.fold_left (fun acc n -> if n >= cap then acc + 1 else acc) 0 r.cached_keys in
      float_of_int full /. float_of_int (Array.length r.cached_keys)

let caches_empty_share r =
  let empty = Array.fold_left (fun acc n -> if n = 0 then acc + 1 else acc) 0 r.cached_keys in
  float_of_int empty /. float_of_int (Array.length r.cached_keys)

let regular_keys_mean r = array_mean r.regular_keys

let availability r =
  (* Vacuously available: with no queries none went unanswered. *)
  if queries r = 0 then 1.0
  else 1.0 -. (float_of_int r.unreachable /. float_of_int (queries r))

let maintenance_traffic_per_query r = per_query r (maintenance_bytes r)

let lookup_success_rate r =
  let calls = rpc_calls r in
  if calls = 0 then 1.0 else 1.0 -. (float_of_int (rpc_exhausted r) /. float_of_int calls)

let stale_read_rate r =
  let reads = quorum_reads r in
  if reads = 0 then 0.0 else float_of_int (quorum_stale_reads r) /. float_of_int reads
