(* The benchmark harness.

   Two halves:
   - the {e reproduction} harness: every table and figure of the paper's
     evaluation, regenerated by the simulation grid and printed as text
     (see DESIGN.md section 4 for the experiment index);
   - micro-benchmarks of the hot operations underneath them (hashing,
     query parsing, the covering relation, DHT routing, index lookups,
     LRU updates, the observability layer, the RPC channel).

   Usage:
     main.exe                  run everything at paper scale
     main.exe --quick          run everything at reduced scale
     main.exe --experiment X[,Y..]  run selected experiments only
     main.exe --micro-only     only the micro-benchmarks
     main.exe --skip-micro     only the reproduction harness
     main.exe --json-out F.json  also write a structured BENCH report
     main.exe --timings        fill wall-clock fields in the JSON report
     main.exe --list           list experiment ids

   With [--json-out] the run emits an {!Obs.Bench_report}: per
   micro-benchmark allocation (and, with [--timings], time) per run, and
   per experiment the GC delta plus its headline metrics.  Without
   [--timings] every wall-clock field is null and the file is
   byte-for-byte reproducible for the same binary and arguments — the
   form the CI regression gate compares with [benchdiff].  Every run
   measures the micro-benchmarks one way: fixed-iteration loops (one
   warm call, then a fixed run count between two [Gc.quick_stat]
   readings), so the counts cannot wobble with machine speed; with
   [--timings] the same loops are timed on the monotonic clock. *)

let usage_lines =
  [
    "usage: main.exe [options]";
    "  --quick             reduced scale (100 nodes, 1k articles, 5k queries)";
    "  --experiment IDS    comma-separated experiment ids (see --list)";
    "  --micro-only        only the micro-benchmarks";
    "  --skip-micro        only the reproduction harness";
    "  --json-out F.json   write a structured bench report (schema p2pindex.bench_report)";
    "  --timings           fill wall-clock fields in the report (forfeits byte-reproducibility)";
    "  --list              list experiment ids";
    "  --help, -h          this message";
  ]

let usage () = List.iter print_endline usage_lines

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("main.exe: " ^ msg);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks: named thunks, measured by the fixed-iteration
   accounting below. *)

let micro_ops () : (string * (unit -> unit)) list =
  let sha_input = String.init 256 (fun i -> Char.chr (i mod 256)) in
  let q1_string =
    "/article[author[first/John][last/Smith]][conf/SIGCOMM][title/TCP][year/1989]"
  in
  let q_general = Xpath.of_string "/article/author/last/Smith" in
  let q_specific = Xpath.of_string q1_string in
  let ring = Dht.Chord.create_network ~seed:7L ~node_count:256 () in
  let prng = Stdx.Prng.create ~seed:9L in
  let pastry = Dht.Pastry.create_network ~seed:7L ~node_count:256 () in
  let can = Dht.Can.create_network ~seed:7L ~node_count:256 () in
  let kademlia = Dht.Kademlia.create_network ~seed:7L ~node_count:256 () in
  let vocabulary =
    Fuzzy.Spell.of_list
      (List.map Bib.Article.author_to_string
         (Bib.Corpus.distinct_authors
            (Bib.Corpus.generate ~seed:5L (Bib.Corpus.default_config ~article_count:2_000))))
  in
  let articles = Bib.Corpus.generate ~seed:3L (Bib.Corpus.default_config ~article_count:1_000) in
  let resolver = Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:3L ~node_count:100 ()) in
  let index = Bib.Bib_index.create ~resolver () in
  Bib.Bib_index.publish_corpus index ~kind:Bib.Schemes.Simple articles;
  let sample_query = Bib.Bib_query.author_q (List.hd articles.(0).Bib.Article.authors) in
  (* Shortcut caches at the paper's LRU-30: one query holding 30 cached
     targets, and a full cache taking a fresh pair per run (700 distinct
     pairs cycle, so each install evicts the recency tail). *)
  let hot_query = "/article/author/last/Smith" in
  let hot_cache : int Cache.Shortcut_cache.t =
    Cache.Shortcut_cache.create ~capacity:(Some 30) ()
  in
  for t = 0 to 29 do
    ignore
      (Cache.Shortcut_cache.add hot_cache ~query_key:hot_query
         ~target_key:(Printf.sprintf "/article/title/T%02d" t) (0, t)
        : bool)
  done;
  let evict_cache : int Cache.Shortcut_cache.t =
    Cache.Shortcut_cache.create ~capacity:(Some 30) ()
  in
  let evict_queries = Array.init 100 (Printf.sprintf "/article/author/last/L%03d") in
  let evict_targets = Array.init 7 (Printf.sprintf "/article/title/T%d") in
  let counter = ref 0 in
  (* Prefix scheme: arc-covering resolution on a 512-node ring, the
     spanning-tree layout, and a full routed query over a published
     index (unbilled transparent channel — the work, not the wire). *)
  let prefix_resolver =
    Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:7L ~node_count:512 ())
  in
  let prefix_probes = [| "S"; "Mar"; "Gar"; "K"; "Ben" |] in
  let prefix_tick = ref 0 in
  let tree_members = List.init 64 (fun i -> i * 7 mod 512) in
  let prefix_index =
    Prefix.Prefix_index.create ~render:Fun.id ~resolver:prefix_resolver ()
  in
  Prefix.Prefix_index.publish prefix_index
    (List.concat_map
       (fun (a : Bib.Article.t) ->
         List.map
           (fun (x : Bib.Article.author) ->
             (x.Bib.Article.last, Bib.Article.author_to_string x))
           a.Bib.Article.authors)
       (Array.to_list articles));
  (* Telemetry overhead: the registry instruments themselves, one traced
     lookup step against an instrumented index, and a snapshot render. *)
  let registry = Obs.Metrics.create () in
  let obs_counter = Obs.Metrics.counter registry "p2pindex_bench_increments_total" in
  let obs_hist = Obs.Metrics.histogram registry "p2pindex_bench_observe_seconds" in
  let hist_tick = ref 0 in
  let obs_tracer = Obs.Trace.create ~capacity:128 () in
  let traced_index =
    Bib.Bib_index.create ~resolver ~metrics:registry
      ~tracer:(Obs.Trace.create ~capacity:64 ())
      ()
  in
  Bib.Bib_index.publish_corpus traced_index ~kind:Bib.Schemes.Simple articles;
  (* Soft-state refresh: the corpus republished at replication 3 with
     five of the hundred nodes down, the round a churned run repeats
     every republish period. *)
  let republish_index =
    Bib.Bib_index.create ~resolver ~replication:3 ~ttl:60.0 ~clock:(fun () -> 10.0) ()
  in
  Bib.Bib_index.publish_corpus republish_index ~kind:Bib.Schemes.Simple articles;
  for node = 0 to 4 do
    ignore (Dht.Liveness.fail (Bib.Bib_index.liveness republish_index) (node * 20) : bool)
  done;
  (* The report's totals over a 10k-article corpus published on 500
     nodes, the paper-scale run's index: every replica state counted
     once per report. *)
  let report_index =
    Bib.Bib_index.create
      ~resolver:(Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:3L ~node_count:500 ()))
      ()
  in
  Bib.Bib_index.publish_corpus report_index ~kind:Bib.Schemes.Simple
    (Bib.Corpus.generate ~seed:3L (Bib.Corpus.default_config ~article_count:10_000));
  (* Churn engine: a steady-state push/pop against a primed event queue —
     the operation the discrete-event driver performs per scheduled event. *)
  let queue : int Stdx.Event_queue.t = Stdx.Event_queue.create ~dummy:0 () in
  let queue_prng = Stdx.Prng.create ~seed:11L in
  for i = 0 to 1023 do
    Stdx.Event_queue.push queue ~time:(Stdx.Prng.float queue_prng 1000.0) i
  done;
  (* RPC fast path vs raw sends: what the zero-plan indirection costs on
     every lookup of a fault-free run (one request + touch + response). *)
  let rpc_net = Dht.Network.create ~node_count:64 () in
  let raw_net = Dht.Network.create ~node_count:64 () in
  let rpc = Dht.Rpc.create ~network:rpc_net () in
  let rpc_tick = ref 0 in
  let faulty_rpc =
    Dht.Rpc.create ~network:rpc_net
      ~plan:
        (Faults.Plan.create ~seed:13L
           (Faults.Plan.spec ~loss_rate:0.1
              ~latency:(Faults.Plan.Exponential { mean = 0.01 })
              ()))
      ()
  in
  (* One full user session through the resumable walk machine, over a
     published index — the unit of work the engine schedules. *)
  let walk_env =
    Sim.Runner.Internal.setup
      {
        Sim.Runner.default_config with
        node_count = 50;
        article_count = 500;
        query_count = 1_000;
        policy = Cache.Policy.lru 10;
      }
  in
  let walk_ctx = Sim.Runner.Internal.walk_ctx walk_env in
  (* Replica writes and reconciliation: one refresh write of a value
     every replica of a key already holds, at replication 3 (what a
     republish round makes of nearly every planned key), a quorum read
     over two agreeing replicas of one 256-entry key (the read nearly
     every quorum lookup makes), and one anti-entropy pass over a
     converged store, where every exchange matches. *)
  let storage_resolver =
    Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:3L ~node_count:64 ())
  in
  let insert_store : string Storage.Replicated_store.t =
    Storage.Replicated_store.create ~resolver:storage_resolver ~replication:3 ()
  in
  let insert_key = Hashing.Key.of_string "insert" and insert_value = "/article/author/last/Insert" in
  let insert_refresh () =
    Storage.Replicated_store.insert_unique ~equal:String.equal insert_store ~key:insert_key
      ~len:(String.length insert_value) insert_value
  in
  ignore (insert_refresh () : bool);
  let agree_store : string Storage.Replicated_store.t =
    Storage.Replicated_store.create ~resolver:storage_resolver ~replication:2 ()
  in
  let agree_key = Hashing.Key.of_string "agree" in
  for i = 1 to 256 do
    let v = Printf.sprintf "/article/author/last/Author%03d" i in
    Storage.Replicated_store.insert agree_store ~key:agree_key ~len:(String.length v) v
  done;
  let agree_nodes = Storage.Replicated_store.replica_nodes agree_store agree_key in
  let ae_store : string Storage.Replicated_store.t =
    Storage.Replicated_store.create ~resolver:storage_resolver ~replication:3 ()
  in
  for i = 1 to 256 do
    let key = Hashing.Key.of_string (Printf.sprintf "range-%d" i) in
    for j = 1 to 4 do
      let v = Printf.sprintf "/article/title/Title%03d-%d" i j in
      Storage.Replicated_store.insert ae_store ~key ~len:(String.length v) v
    done
  done;
  (* Ownership on 500-node overlays, over a fixed cycle of keys so only
     the lookup allocates: Chord's ring successor, Pastry's numerically
     closest node, Kademlia's XOR descent, CAN's partition-tree descent,
     the three closest replicas on Kademlia and CAN, and one whole Chord
     convergence check. *)
  let chord_500 = Dht.Chord.create_network ~seed:7L ~node_count:500 () in
  let chord_500_resolver = Dht.Chord.resolver chord_500 in
  let pastry_500_resolver =
    Dht.Pastry.resolver (Dht.Pastry.create_network ~seed:7L ~node_count:500 ())
  in
  let kademlia_500_resolver =
    Dht.Kademlia.resolver (Dht.Kademlia.create_network ~seed:7L ~node_count:500 ())
  in
  let can_500_resolver = Dht.Can.resolver (Dht.Can.create_network ~seed:7L ~node_count:500 ()) in
  let owner_prng = Stdx.Prng.create ~seed:13L in
  let owner_keys = Array.init 1024 (fun _ -> Hashing.Key.random owner_prng) in
  let owner_tick = ref 0 in
  let owner_key () =
    incr owner_tick;
    owner_keys.(!owner_tick land 1023)
  in
  let replica_buf = Stdx.Int_buf.create () in
  (* Per-node set-up at 10k nodes: the substrate's identifiers, an empty
     store, and a whole run's set-up (substrate, store, caches, corpus
     publication) — what every shard of a scale run pays before its
     first session. *)
  let resolver_10k =
    Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:3L ~node_count:10_000 ())
  in
  let setup_10k =
    {
      Sim.Runner.default_config with
      node_count = 10_000;
      article_count = 500;
      policy = Cache.Policy.lru 30;
    }
  in
  [
    ("sha1/256B", fun () -> ignore (Hashing.Sha1.digest_string sha_input));
    ("sha1/reference-256B", fun () -> ignore (Hashing.Sha1.reference_digest sha_input));
    ("xpath/parse", fun () -> ignore (Xpath.of_string q1_string));
    ("xpath/covers", fun () -> ignore (Xpath.covers q_general q_specific));
    ("chord/lookup-256", fun () -> ignore (Dht.Chord.lookup ring (Hashing.Key.random prng)));
    ("pastry/lookup-256", fun () -> ignore (Dht.Pastry.lookup pastry (Hashing.Key.random prng)));
    ("can/lookup-256", fun () -> ignore (Dht.Can.lookup can (Hashing.Key.random prng)));
    ( "kademlia/lookup-256",
      fun () -> ignore (Dht.Kademlia.lookup kademlia (Hashing.Key.random prng)) );
    ("fuzzy/suggest", fun () -> ignore (Fuzzy.Spell.suggest vocabulary "Jhn Smth"));
    ("index/lookup_step", fun () -> ignore (Bib.Bib_index.lookup_step index sample_query));
    ( "index/publish-corpus-1k",
      fun () ->
        Bib.Bib_index.publish_corpus (Bib.Bib_index.create ~resolver ()) ~kind:Bib.Schemes.Simple
          articles );
    ( "index/republish-corpus-1k",
      fun () ->
        Bib.Bib_index.republish republish_index );
    ( "index/report-totals-10k",
      fun () ->
        ignore (Bib.Bib_index.mapping_totals report_index);
        ignore (Bib.Bib_index.entries_per_node report_index);
        ignore (Bib.Bib_index.file_bytes report_index) );
    ( "cache/find-hot-query",
      fun () ->
        ignore (Cache.Shortcut_cache.find hot_cache ~query_key:hot_query) );
    ( "cache/add-evict",
      fun () ->
        incr counter;
        ignore
          (Cache.Shortcut_cache.add evict_cache
             ~query_key:evict_queries.(!counter mod 100)
             ~target_key:evict_targets.(!counter mod 7) (0, 0)
            : bool) );
    ("obs/counter-incr", fun () -> Obs.Metrics.Counter.incr obs_counter);
    ( "obs/histogram-observe",
      fun () ->
        incr hist_tick;
        Obs.Metrics.Histogram.observe_int obs_hist (!hist_tick mod 700) );
    ( "obs/span-emit",
      fun () ->
        Obs.Trace.span obs_tracer ~query:"/article/author/last/Smith" ~node:17
          ~route_hops:3 ~result_count:2 ~request_bytes:60 ~response_bytes:140
          ~outcome:Obs.Trace.Refined () );
    ( "index/lookup_step-traced",
      fun () -> ignore (Bib.Bib_index.lookup_step traced_index sample_query) );
    ( "obs/prometheus-render",
      fun () -> ignore (Obs.Prometheus.render (Obs.Metrics.snapshot registry)) );
    ( "churn/event-queue-1024",
      fun () ->
        match Stdx.Event_queue.pop queue with
        | Some (time, ev) -> Stdx.Event_queue.push queue ~time:(time +. 1000.0) ev
        | None -> () );
    ( "rpc/raw-exchange",
      fun () ->
        incr rpc_tick;
        let dst = !rpc_tick mod 64 in
        Dht.Network.send raw_net ~dst ~bytes:60 ~category:Dht.Network.Request;
        Dht.Network.touch raw_net ~node:dst;
        Dht.Network.send raw_net ~dst ~bytes:140 ~category:Dht.Network.Response );
    ( "rpc/zero-fault-call",
      fun () ->
        incr rpc_tick;
        ignore
          (Dht.Rpc.call rpc ~dst:(!rpc_tick mod 64) ~request_bytes:60
             ~handler:(fun ~node:_ -> Dht.Rpc.Reply { bytes = 140; value = () })
             ()) );
    ( "rpc/faulty-call",
      fun () ->
        incr rpc_tick;
        ignore
          (Dht.Rpc.call faulty_rpc ~dst:(!rpc_tick mod 64) ~request_bytes:60
             ~handler:(fun ~node:_ -> Dht.Rpc.Reply { bytes = 140; value = () })
             ()) );
    ( "prefix/route-512",
      fun () ->
        incr prefix_tick;
        ignore
          (Prefix.Range_router.covering_prefix prefix_resolver
             prefix_probes.(!prefix_tick mod Array.length prefix_probes)) );
    ( "prefix/multicast-tree-64",
      fun () ->
        let tree = Prefix.Multicast.build tree_members in
        ignore (Prefix.Multicast.edges tree);
        ignore (Prefix.Multicast.depth tree) );
    ( "prefix/routed-query",
      fun () ->
        incr prefix_tick;
        ignore
          (Prefix.Prefix_index.query prefix_index
             ~prefix:prefix_probes.(!prefix_tick mod Array.length prefix_probes)) );
    ( "sim/session-walk",
      fun () ->
        ignore (Sim.Walk.run walk_ctx (Sim.Runner.Internal.next_event walk_env)) );
    ("storage/insert-r3", fun () -> ignore (insert_refresh () : bool));
    ( "storage/quorum-read-agree",
      fun () ->
        ignore
          (Storage.Replicated_store.quorum_read agree_store ~key:agree_key ~nodes:agree_nodes) );
    ( "storage/anti-entropy-pass",
      fun () ->
        ignore
          (Storage.Anti_entropy.run ae_store ~entry_overhead:0 ()) );
    ("prng/int", fun () -> ignore (Stdx.Prng.int prng 1000));
    ( "dht/chord-responsible-500",
      fun () -> ignore (Dht.Resolver.responsible chord_500_resolver (owner_key ())) );
    ( "dht/kademlia-responsible-500",
      fun () -> ignore (Dht.Resolver.responsible kademlia_500_resolver (owner_key ())) );
    ( "dht/kademlia-replicas3-500",
      fun () -> Dht.Resolver.replicas_into kademlia_500_resolver (owner_key ()) 3 replica_buf );
    ( "dht/pastry-responsible-500",
      fun () -> ignore (Dht.Resolver.responsible pastry_500_resolver (owner_key ())) );
    ( "dht/can-responsible-500",
      fun () -> ignore (Dht.Resolver.responsible can_500_resolver (owner_key ())) );
    ( "dht/can-replicas3-500",
      fun () -> Dht.Resolver.replicas_into can_500_resolver (owner_key ()) 3 replica_buf );
    ("dht/chord-converged-500", fun () -> ignore (Dht.Chord.is_converged chord_500));
    ( "dht/chord-create-500",
      fun () -> ignore (Dht.Chord.create_network ~seed:7L ~node_count:500 ()) );
    ( "dht/pastry-create-500",
      fun () -> ignore (Dht.Pastry.create_network ~seed:7L ~node_count:500 ()) );
    ( "dht/static-create-10k",
      fun () -> ignore (Dht.Static_dht.create ~seed:3L ~node_count:10_000 ()) );
    ( "storage/create-10k",
      fun () ->
        ignore
          (Storage.Replicated_store.create ~resolver:resolver_10k ~replication:3 ()
            : string Storage.Replicated_store.t) );
    ("sim/setup-10k-nodes", fun () -> ignore (Sim.Runner.Internal.setup setup_10k));
  ]

(* Fixed-iteration accounting: one warm call, then [runs] calls
   between two [Gc.quick_stat] readings, averaged per run.  Identical
   process execution gives identical allocation counts, so the
   strict-mode report stays byte-reproducible, as a time-quota sampler's
   adaptive run counts would not. *)
let micro_runs = 1_000

(* Whole-corpus publication and republication, and the 10k-node
   set-ups, take milliseconds a run where the other micros take
   nanoseconds; ten runs give their exact per-run counts. *)
let micro_runs_of = function
  | "index/publish-corpus-1k" | "index/republish-corpus-1k" | "index/report-totals-10k"
  | "dht/static-create-10k" | "storage/create-10k" | "sim/setup-10k-nodes"
  | "dht/chord-converged-500" | "dht/chord-create-500" | "dht/pastry-create-500" ->
      10
  | _ -> micro_runs

(* Absolute ceilings on minor words per run, on top of the baseline
   comparison: per-node set-up must cost what a run touches, not what
   the population size would buy, a PRNG draw nothing, an ownership
   lookup a search of the live ring or a descent of CAN's partition
   tree, not a pass over every node, a Chord or Pastry lookup its key
   and result and nothing per hop, a Kademlia lookup no copy of a
   node's whole state per hop, a Pastry network its tables and not a sort of
   every live key per node, a convergence check one finger target per
   finger, a SHA-1 digest on either path its 20-byte result, a shortcut
   find its result list (three words a target) and no sort or hash per
   target, an install into a full cache its node, pair, group and
   table bucket, with the eviction relinking the tail in place, a
   Kademlia lookup no bucket copy per contact heard from, a refresh
   write at replication 3 its entry and its list and no table probe
   per replica, an agreeing quorum read no more than the node-major
   store's, a converged anti-entropy pass nothing per key or per
   state, and a republish round no entry at all: it writes the lists
   publication wrote, which the replicas that missed nothing adopt. *)
let micro_ceilings =
  [
    ("sha1/256B", 4.0);
    ("sha1/reference-256B", 4.0);
    ("prng/int", 0.0);
    ("chord/lookup-256", 10.0);
    ("pastry/lookup-256", 7.0);
    ("kademlia/lookup-256", 5_510.0);
    ("dht/chord-responsible-500", 50.0);
    ("dht/pastry-responsible-500", 50.0);
    ("dht/kademlia-responsible-500", 50.0);
    ("dht/kademlia-replicas3-500", 50.0);
    ("dht/can-responsible-500", 50.0);
    ("dht/can-replicas3-500", 50.0);
    ("dht/chord-converged-500", 1_000_000.0);
    ("dht/chord-create-500", 140_000.0);
    ("dht/pastry-create-500", 1_000_000.0);
    ("dht/static-create-10k", 110_600.0);
    ("storage/create-10k", 1_000.0);
    ("index/publish-corpus-1k", 531_700.0);
    ("index/republish-corpus-1k", 8_060.0);
    ("index/report-totals-10k", 29.0);
    ("storage/insert-r3", 20.0);
    ("storage/quorum-read-agree", 805.0);
    ("storage/anti-entropy-pass", 28.0);
    ("sim/setup-10k-nodes", 1_000_000.0);
    ("cache/find-hot-query", 96.0);
    ("cache/add-evict", 24.0);
  ]

let within_ceilings (micros : Obs.Bench_report.micro list) =
  List.fold_left
    (fun ok (m : Obs.Bench_report.micro) ->
      let name = m.Obs.Bench_report.micro_name
      and words = m.Obs.Bench_report.minor_words_per_run in
      match List.assoc_opt name micro_ceilings with
      | Some ceiling when words > ceiling ->
          Printf.eprintf "main.exe: %s allocates %.1f minor words per run (ceiling %.0f)\n"
            name words ceiling;
          false
      | Some _ | None -> ok)
    true micros

let measure_micro ~timed () =
  let measure (name, fn) =
    let runs = micro_runs_of name in
    fn ();
    (* Start every bench at a canonical GC phase (empty minor heap, no
       pending major work): promoted/major words otherwise depend on
       where the minor-heap pointer happens to sit after everything the
       process allocated before this bench, and the baseline and smoke
       invocations allocate differently (label, output path) before
       reaching here. *)
    Gc.full_major ();
    let t0 = if timed then Some (Monotonic_clock.now ()) else None in
    let before = Gc.quick_stat () in
    (* [quick_stat]'s minor_words only advances at minor collections;
       [Gc.minor_words] reads the live allocation pointer, which matters
       for ops too cheap to fill the minor heap in [runs] calls. *)
    let minor_before = Gc.minor_words () in
    for _ = 1 to runs do
      fn ()
    done;
    let minor_after = Gc.minor_words () in
    let after = Gc.quick_stat () in
    let elapsed =
      Option.map (fun t0 -> Int64.sub (Monotonic_clock.now ()) t0) t0
    in
    let per x = x /. float_of_int runs in
    {
      Obs.Bench_report.micro_name = name;
      runs;
      time_ns_per_run = Option.map (fun ns -> per (Int64.to_float ns)) elapsed;
      minor_words_per_run = per (minor_after -. minor_before);
      promoted_words_per_run = per (after.Gc.promoted_words -. before.Gc.promoted_words);
      major_words_per_run = per (after.Gc.major_words -. before.Gc.major_words);
    }
  in
  List.map measure (micro_ops ())

(* The micro table; with [--timings], an ns/run column too. *)
let print_micro_alloc ~timed (micros : Obs.Bench_report.micro list) =
  print_string "\n=== Micro-benchmarks (fixed iterations) ===\n";
  let f = Printf.sprintf "%.1f" in
  Stdx.Tabular.print_table
    ~headers:
      ([ "benchmark"; "runs"; "minor w/run"; "promoted w/run"; "major w/run" ]
      @ if timed then [ "ns/run" ] else [])
    ~rows:
      (List.map
         (fun (m : Obs.Bench_report.micro) ->
           [
             m.Obs.Bench_report.micro_name;
             string_of_int m.Obs.Bench_report.runs;
             f m.Obs.Bench_report.minor_words_per_run;
             f m.Obs.Bench_report.promoted_words_per_run;
             f m.Obs.Bench_report.major_words_per_run;
           ]
           @ Option.to_list (Option.map f m.Obs.Bench_report.time_ns_per_run))
         micros)

(* ------------------------------------------------------------------ *)
(* CLI. *)

type options = {
  quick : bool;
  experiments : string list option;  (* None = all, in catalog order *)
  micro_only : bool;
  skip_micro : bool;
  json_out : string option;
  timings : bool;
  list : bool;
}

let default_options =
  {
    quick = false;
    experiments = None;
    micro_only = false;
    skip_micro = false;
    json_out = None;
    timings = false;
    list = false;
  }

let all_ids = List.map (fun (e : Sim.Experiments.t) -> e.id) Sim.Experiments.all

let parse_experiments value =
  let ids = String.split_on_char ',' value in
  let ids = List.filter (fun id -> not (String.equal id "")) ids in
  if ids = [] then die "--experiment: empty id list";
  List.iter
    (fun id ->
      if Option.is_none (Sim.Experiments.find id) then begin
        Printf.eprintf "main.exe: unknown experiment %S; known ids:\n" id;
        List.iter (Printf.eprintf "  %s\n") all_ids;
        exit 2
      end)
    ids;
  ids

let parse_args argv =
  let rec go opts = function
    | [] -> opts
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | "--list" :: rest -> go { opts with list = true } rest
    | "--quick" :: rest -> go { opts with quick = true } rest
    | "--micro-only" :: rest -> go { opts with micro_only = true } rest
    | "--skip-micro" :: rest -> go { opts with skip_micro = true } rest
    | "--timings" :: rest -> go { opts with timings = true } rest
    | "--experiment" :: value :: rest ->
        go { opts with experiments = Some (parse_experiments value) } rest
    | [ "--experiment" ] -> die "--experiment needs a value (see --list)"
    | "--json-out" :: value :: rest ->
        if not (Filename.check_suffix value ".json") then
          die "--json-out %s: the report is JSON; use a .json path" value;
        go { opts with json_out = Some value } rest
    | [ "--json-out" ] -> die "--json-out needs a path"
    | arg :: _ -> die "unknown argument %S (see --help)" arg
  in
  let opts = go default_options (List.tl (Array.to_list argv)) in
  if opts.micro_only && opts.experiments <> None then
    die "--micro-only and --experiment are mutually exclusive";
  if opts.micro_only && opts.skip_micro then
    die "--micro-only and --skip-micro are mutually exclusive";
  opts

(* ------------------------------------------------------------------ *)

let run_experiments grid ~timed ids =
  List.map
    (fun id ->
      (* Start every experiment from an empty minor heap and a collected
         major heap, as the micro-benchmarks do, so its GC counts do not
         depend on how much the experiments before it allocated. *)
      Gc.full_major ();
      let before = Gc.quick_stat () in
      let minor_before = Gc.minor_words () in
      let t0 = if timed then Some (Monotonic_clock.now ()) else None in
      let result =
        match Sim.Experiments.find id with
        | Some e -> e.run grid
        | None -> die "unknown experiment %S" id
      in
      Sim.Experiments.print result;
      let wall_ns = Option.map (fun t0 -> Int64.sub (Monotonic_clock.now ()) t0) t0 in
      let minor_after = Gc.minor_words () in
      let after = Gc.quick_stat () in
      {
        Obs.Bench_report.exp_id = id;
        wall_ns;
        gc =
          {
            (Obs.Bench_report.gc_delta ~before ~after) with
            Obs.Bench_report.minor_words = minor_after -. minor_before;
          };
        exp_metrics = result.metrics;
      })
    ids

let () =
  let opts = parse_args Sys.argv in
  if opts.list then List.iter print_endline all_ids
  else begin
    let scale =
      if opts.quick then Sim.Experiments.quick_scale else Sim.Experiments.paper_scale
    in
    let ids =
      if opts.micro_only then []
      else
        match opts.experiments with
        | Some ids -> ids
        | None -> all_ids
    in
    let experiments =
      if ids = [] then []
      else begin
        Printf.printf
          "p2pindex reproduction harness: %d nodes, %d articles, %d queries (seed %Ld)\n"
          scale.Sim.Experiments.node_count scale.Sim.Experiments.article_count
          scale.Sim.Experiments.query_count scale.Sim.Experiments.seed;
        let grid = Sim.Experiments.Grid.create scale in
        run_experiments grid ~timed:opts.timings ids
      end
    in
    let want_micro =
      (not opts.skip_micro)
      && (opts.micro_only || opts.json_out <> None || opts.experiments = None)
    in
    let micro = if want_micro then measure_micro ~timed:opts.timings () else [] in
    if micro <> [] then print_micro_alloc ~timed:opts.timings micro;
    Option.iter
      (fun path ->
        let report =
          {
            Obs.Bench_report.label = Obs.Bench_report.label_of_path path;
            timed = opts.timings;
            scale =
              {
                Obs.Bench_report.node_count = scale.Sim.Experiments.node_count;
                article_count = scale.Sim.Experiments.article_count;
                query_count = scale.Sim.Experiments.query_count;
                seed = scale.Sim.Experiments.seed;
              };
            micro;
            experiments;
          }
        in
        Obs.Bench_report.write ~path report;
        Printf.printf "\nwrote %s (%d micro, %d experiments%s)\n" path (List.length micro)
          (List.length experiments)
          (if opts.timings then ", timed — not byte-reproducible" else ""))
      opts.json_out;
    if not (within_ceilings micro) then exit 1
  end
