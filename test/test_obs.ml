(* The telemetry subsystem: metrics registry, lookup tracing, exporters —
   and the wiring through the network, index, cache and simulation layers. *)

module Metrics = Obs.Metrics
module Trace = Obs.Trace
module Json = Obs.Json

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  scan 0

(* ------------------------------------------------------------------ *)
(* Counters, gauges, and instrument identity. *)

let counter_basics () =
  let r = Metrics.create () in
  let c = Metrics.counter r "test_total" in
  Metrics.Counter.incr c;
  Metrics.Counter.incr ~by:4 c;
  Alcotest.(check int) "value" 5 (Metrics.Counter.value c);
  Alcotest.(check bool) "negative increment rejected" true
    (match Metrics.Counter.incr ~by:(-1) c with
    | exception Invalid_argument _ -> true
    | () -> false);
  Metrics.Counter.add c 3;
  Alcotest.(check int) "add" 8 (Metrics.Counter.value c);
  Alcotest.(check bool) "negative add rejected" true
    (match Metrics.Counter.add c (-1) with
    | exception Invalid_argument _ -> true
    | () -> false);
  Metrics.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Metrics.Counter.value c)

let counter_identity () =
  let r = Metrics.create () in
  let a = Metrics.counter r ~labels:[ ("x", "1"); ("y", "2") ] "test_total" in
  let b = Metrics.counter r ~labels:[ ("y", "2"); ("x", "1") ] "test_total" in
  let other = Metrics.counter r ~labels:[ ("x", "1"); ("y", "3") ] "test_total" in
  Metrics.Counter.incr a;
  Metrics.Counter.incr b;
  (* Label order is irrelevant: a and b are the same instrument. *)
  Alcotest.(check int) "same series" 2 (Metrics.Counter.value a);
  Alcotest.(check int) "other series untouched" 0 (Metrics.Counter.value other)

(* The labelled snapshot query the report's counts go through. *)
let counter_value_query () =
  let registry labelled =
    let r = Metrics.create () in
    List.iter
      (fun (category, n) ->
        Metrics.Counter.incr ~by:n
          (Metrics.counter r ~labels:[ ("category", category); ("dir", "in") ] "bytes_total"))
      labelled;
    Metrics.Gauge.set (Metrics.gauge r "level") 3.0;
    Metrics.snapshot r
  in
  let a = registry [ ("request", 5); ("response", 7) ]
  and b = registry [ ("request", 11); ("cache", 2) ] in
  let value ?(snap = a) labels name = Metrics.counter_value snap ~labels name in
  Alcotest.(check int) "one series, labels in any order" 7
    (value [ ("dir", "in"); ("category", "response") ] "bytes_total");
  Alcotest.(check int) "absent family reads 0" 0 (value [] "missing_total");
  Alcotest.(check int) "absent label set reads 0" 0
    (value [ ("category", "maintenance"); ("dir", "in") ] "bytes_total");
  Alcotest.(check int) "partial label set reads 0" 0
    (value [ ("category", "request") ] "bytes_total");
  Alcotest.(check int) "a gauge is not a counter" 0 (value [] "level");
  let merged = Metrics.merge_snapshots [ a; b ] in
  List.iter
    (fun (category, expected) ->
      Alcotest.(check int) ("merge sums per label: " ^ category) expected
        (value ~snap:merged [ ("category", category); ("dir", "in") ] "bytes_total"))
    [ ("request", 16); ("response", 7); ("cache", 2) ]

let kind_mismatch_rejected () =
  let r = Metrics.create () in
  ignore (Metrics.counter r "test_total");
  Alcotest.(check bool) "gauge under a counter name" true
    (match Metrics.gauge r "test_total" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "malformed name" true
    (match Metrics.counter r "9bad name" with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The exported view of a registry's single-series family. *)
let series_value r name =
  match List.find (fun (f : Metrics.family) -> String.equal f.name name) (Metrics.snapshot r) with
  | { series = [ { value; _ } ]; _ } -> value
  | _ -> Alcotest.failf "%s: expected one series" name

let histogram_snapshot r name =
  match series_value r name with
  | Metrics.Histogram_value hs -> hs
  | _ -> Alcotest.failf "%s: not a histogram" name

let gauge_basics () =
  let r = Metrics.create () in
  let g = Metrics.gauge r "test_gauge" in
  Metrics.Gauge.set g 2.5;
  Metrics.Gauge.set g 4.0;
  match series_value r "test_gauge" with
  | Metrics.Gauge_value v -> Alcotest.(check (float 1e-9)) "last set wins" 4.0 v
  | _ -> Alcotest.fail "not a gauge"

(* ------------------------------------------------------------------ *)
(* Histograms. *)

let histogram_observe_and_quantile () =
  let r = Metrics.create () in
  let h =
    Metrics.histogram r ~buckets:[| 1.0; 10.0; 100.0 |] "test_histogram"
  in
  List.iter (Metrics.Histogram.observe h) [ 0.5; 3.0; 4.0; 7.0; 40.0 ];
  let hs = histogram_snapshot r "test_histogram" in
  Alcotest.(check int) "count" 5 hs.count;
  Alcotest.(check (float 1e-9)) "sum" 54.5 hs.sum;
  (match hs.buckets with
  | [ (1.0, 1); (10.0, 4); (100.0, 5); (bound, 5) ] ->
      Alcotest.(check bool) "overflow bound" true (bound = infinity)
  | other ->
      Alcotest.failf "unexpected buckets: %d entries" (List.length other));
  (* The median observation (4.0) lives in the (1, 10] bucket, whose upper
     bound is the estimate. *)
  Alcotest.(check (float 0.0)) "p50 = covering bucket's bound" 10.0
    (Metrics.snapshot_quantile hs 0.5);
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Metrics.snapshot_quantile { hs with count = 0 } 0.5))

let hist_monotone_prop =
  QCheck.Test.make ~name:"histogram cumulative counts are monotone" ~count:200
    QCheck.(list (float_range 0.0 2000.0))
    (fun samples ->
      let r = Metrics.create () in
      let h = Metrics.histogram r "prop_histogram" in
      List.iter (Metrics.Histogram.observe h) samples;
      let hs = histogram_snapshot r "prop_histogram" in
      let counts = List.map snd hs.buckets in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | [ _ ] | [] -> true
      in
      monotone counts
      && List.length samples = hs.count
      && snd (List.nth hs.buckets (List.length hs.buckets - 1)) = List.length samples)

(* The estimate is the first finite bound whose cumulative count reaches
   the q-th observation (the last finite bound for the overflow bucket). *)
let quantile_bucket_prop =
  QCheck.Test.make ~name:"quantile = covering bound" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_range 0.0 2000.0))
              (float_range 0.0 1.0))
    (fun (samples, q) ->
      let r = Metrics.create () in
      let h = Metrics.histogram r "prop_quantile" in
      List.iter (Metrics.Histogram.observe h) samples;
      let hs = histogram_snapshot r "prop_quantile" in
      let target = q *. float_of_int (List.length samples) in
      let finite = List.filter (fun (b, _) -> Float.is_finite b) hs.buckets in
      let expected =
        match List.find_opt (fun (_, cum) -> float_of_int cum >= target) finite with
        | Some (bound, _) -> bound
        | None -> fst (List.nth finite (List.length finite - 1))
      in
      Metrics.snapshot_quantile hs q = expected)

(* ------------------------------------------------------------------ *)
(* Traces. *)

let emit tracer ?(cache_hit = false) ~seq:_ query outcome =
  Trace.span tracer ~query ~node:3 ~route_hops:2 ~cache_hit ~result_count:1
    ~request_bytes:40 ~response_bytes:90 ~outcome ()

let trace_span_ordering () =
  let tracer = Trace.create () in
  Trace.begin_trace tracer ~root:"/article/author/last/Smith";
  emit tracer ~seq:0 "/article/author/last/Smith" Trace.Refined;
  emit tracer ~seq:1 "/article[author[last/Smith]][year/2001]" Trace.Refined;
  emit tracer ~seq:2 "msd" Trace.Msd_reached;
  Trace.end_trace tracer;
  match Trace.traces tracer with
  | [ t ] ->
      Alcotest.(check string) "root" "/article/author/last/Smith" t.Trace.root;
      Alcotest.(check (list int)) "seq in order" [ 0; 1; 2 ]
        (List.map (fun s -> s.Trace.seq) t.Trace.spans);
      Alcotest.(check bool) "same trace id" true
        (List.for_all (fun s -> s.Trace.trace_id = t.Trace.id) t.Trace.spans)
  | other -> Alcotest.failf "expected one trace, got %d" (List.length other)

let trace_ring_buffer () =
  let tracer = Trace.create ~capacity:2 () in
  for i = 1 to 5 do
    Trace.begin_trace tracer ~root:(Printf.sprintf "q%d" i);
    emit tracer ~seq:0 (Printf.sprintf "q%d" i) Trace.Not_found;
    Trace.end_trace tracer
  done;
  Alcotest.(check int) "kept" 2 (Trace.trace_count tracer);
  Alcotest.(check (list string)) "oldest evicted first" [ "q4"; "q5" ]
    (List.map (fun t -> t.Trace.root) (Trace.traces tracer))

(* The exact text the CLI's [--trace-out] writes: one span object per
   line, in trace order, with JSON string escapes for a quoted root and a
   query holding a newline, a cache hit, and a lone span outside any
   trace recorded as a trace of its own. *)
let trace_jsonl_text () =
  let tracer = Trace.create () in
  Trace.begin_trace tracer ~root:"a \"quoted\" root";
  emit tracer ~seq:0 "a \"quoted\" root" Trace.Refined;
  emit tracer ~cache_hit:true ~seq:1 "b\nnewline" Trace.Generalized;
  Trace.end_trace tracer;
  emit tracer ~seq:0 "lone" Trace.Not_found;
  Trace.begin_trace tracer ~root:"second";
  emit tracer ~seq:0 "second" Trace.Msd_reached;
  Trace.end_trace tracer;
  let path = Filename.temp_file "p2pindex_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Export.write_trace_jsonl ~path tracer;
      let lines =
        [
          {|{"trace":0,"seq":0,"query":"a \"quoted\" root","node":3,"hops":2,"cache_hit":false,"results":1,"request_bytes":40,"response_bytes":90,"outcome":"refined"}|};
          {|{"trace":0,"seq":1,"query":"b\nnewline","node":3,"hops":2,"cache_hit":true,"results":1,"request_bytes":40,"response_bytes":90,"outcome":"generalized"}|};
          {|{"trace":1,"seq":0,"query":"lone","node":3,"hops":2,"cache_hit":false,"results":1,"request_bytes":40,"response_bytes":90,"outcome":"not-found"}|};
          {|{"trace":2,"seq":0,"query":"second","node":3,"hops":2,"cache_hit":false,"results":1,"request_bytes":40,"response_bytes":90,"outcome":"msd-reached"}|};
        ]
      in
      Alcotest.(check string) "JSONL text"
        (String.concat "" (List.map (fun l -> l ^ "\n") lines))
        (In_channel.with_open_bin path In_channel.input_all))

(* ------------------------------------------------------------------ *)
(* Exporters. *)

let populated_registry () =
  let r = Metrics.create () in
  Metrics.Counter.incr ~by:7
    (Metrics.counter r ~help:"a counter" ~labels:[ ("k", "v") ] "export_total");
  Metrics.Gauge.set (Metrics.gauge r ~help:"a gauge" "export_gauge") 2.5;
  let h = Metrics.histogram r ~buckets:[| 1.0; 5.0 |] "export_histogram" in
  List.iter (Metrics.Histogram.observe h) [ 0.5; 2.0; 9.0 ];
  r

let prometheus_roundtrip () =
  let snapshot = Metrics.snapshot (populated_registry ()) in
  let text = Obs.Prometheus.render snapshot in
  Alcotest.(check bool) "mentions TYPE" true
    (contains_substring text "# TYPE export_total counter");
  match Obs.Prometheus.parse text with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok parsed -> Alcotest.(check bool) "snapshot survives" true (parsed = snapshot)

let table_render () =
  let table = Obs.Export.render_table (Metrics.snapshot (populated_registry ())) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains_substring table needle))
    [ "export_total"; "export_gauge"; "export_histogram"; "k=v" ]

let file_roundtrip () =
  let snapshot = Metrics.snapshot (populated_registry ()) in
  let path = Filename.temp_file "p2pindex_metrics" ".prom" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Export.write_metrics ~path snapshot;
      match Obs.Export.read_metrics ~path with
      | Ok parsed -> Alcotest.(check bool) "file round-trip" true (parsed = snapshot)
      | Error msg -> Alcotest.failf "read failed: %s" msg)

let json_parser_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.String "quote \" slash \\ control \n tab \t");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("l", Json.List [ Json.Bool true; Json.Null; Json.Int 0 ]);
      ]
  in
  match Json.of_string (Json.to_string doc) with
  | Ok parsed -> Alcotest.(check bool) "JSON round-trip" true (parsed = doc)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

(* ------------------------------------------------------------------ *)
(* Wiring: the network as a thin registry client. *)

let network_registry_lock_step () =
  let r = Metrics.create () in
  let net = Dht.Network.create ~metrics:r ~node_count:4 () in
  Dht.Network.send net ~dst:1 ~bytes:100 ~category:Dht.Network.Request;
  Dht.Network.send net ~dst:2 ~bytes:300 ~category:Dht.Network.Response;
  Dht.Network.touch net ~node:1;
  let snapshot = Metrics.snapshot r in
  Alcotest.(check int) "bytes mirrored" (Dht.Network.total_bytes net)
    (Metrics.counter_total snapshot "p2pindex_network_bytes_total");
  Alcotest.(check int) "messages mirrored"
    (List.fold_left (fun n c -> n + Dht.Network.messages net c) 0
       Dht.Network.[ Request; Response; Cache_update; Maintenance ])
    (Metrics.counter_total snapshot "p2pindex_network_messages_total");
  Dht.Network.reset net;
  let snapshot = Metrics.snapshot r in
  Alcotest.(check int) "reset zeroes the registry too" 0
    (Metrics.counter_total snapshot "p2pindex_network_bytes_total")

let cache_counters () =
  let r = Metrics.create () in
  let cache : int Cache.Shortcut_cache.t =
    Cache.Shortcut_cache.create ~instruments:(Cache.Shortcut_cache.instruments r)
      ~capacity:(Some 1) ()
  in
  ignore (Cache.Shortcut_cache.add cache ~query_key:"a" ~target_key:"m" (1, 10));
  ignore (Cache.Shortcut_cache.find cache ~query_key:"a");
  ignore (Cache.Shortcut_cache.find cache ~query_key:"zzz");
  ignore (Cache.Shortcut_cache.add cache ~query_key:"b" ~target_key:"m" (2, 10));
  let snapshot = Metrics.snapshot r in
  let total name = Metrics.counter_total snapshot name in
  Alcotest.(check int) "hits" 1 (total "p2pindex_cache_hits_total");
  Alcotest.(check int) "misses" 1 (total "p2pindex_cache_misses_total");
  Alcotest.(check int) "installs" 2 (total "p2pindex_cache_installs_total");
  Alcotest.(check int) "evictions" 1 (total "p2pindex_cache_evictions_total")

(* ------------------------------------------------------------------ *)
(* Wiring: a simulation's registry agrees with the network accounting,
   byte for byte: a Flat-scheme run with shortcut caches, and a churned,
   fault-free run at replication 3 whose lookup steps fail over down the
   replica list (one span per step, however many replicas it asked). *)

let flat_cached_config =
  {
    Sim.Runner.default_config with
    node_count = 40;
    article_count = 300;
    query_count = 500;
    scheme = Bib.Schemes.Flat;
    policy = Cache.Policy.lru 30;
    seed = 11L;
  }

let churned_failover_config =
  {
    Sim.Runner.default_config with
    node_count = 50;
    article_count = 400;
    query_count = 800;
    scheme = Bib.Schemes.Simple;
    churn =
      Some { Sim.Runner.default_churn with churn_rate = 0.01; replication = 3 };
  }

let sim_registry_matches_network cfg =
  let tracer = Trace.create () in
  let r = Sim.Runner.run ~tracer cfg in
  let total name = Metrics.counter_total r.Sim.Runner.metrics name in
  let network_bytes =
    Sim.Runner.request_bytes r + Sim.Runner.response_bytes r + Sim.Runner.cache_bytes r
    + Sim.Runner.maintenance_bytes r
  in
  Alcotest.(check int) "registry bytes = network bytes" network_bytes
    (total "p2pindex_network_bytes_total");
  Alcotest.(check int) "registry messages = network messages"
    (Sim.Runner.network_messages r)
    (total "p2pindex_network_messages_total");
  (* The trace export carries the same wire-model bytes, split per span. *)
  let spans = List.concat_map (fun t -> t.Trace.spans) (Trace.traces tracer) in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 spans in
  Alcotest.(check int) "span request bytes" (Sim.Runner.request_bytes r)
    (sum (fun s -> s.Trace.request_bytes));
  Alcotest.(check int) "span response bytes" (Sim.Runner.response_bytes r)
    (sum (fun s -> s.Trace.response_bytes));
  Alcotest.(check int) "one trace per query" cfg.Sim.Runner.query_count
    (Trace.trace_count tracer)

let flat_sim_registry_matches_network () =
  List.iter sim_registry_matches_network [ flat_cached_config; churned_failover_config ]

(* ------------------------------------------------------------------ *)
(* Wiring: the generalization path leaves a recognizable trace. *)

let generalization_trace () =
  let resolver = Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:5L ~node_count:20 ()) in
  let registry = Metrics.create () in
  let tracer = Trace.create () in
  let index = Bib.Bib_index.create ~resolver ~metrics:registry ~tracer () in
  let author = { Bib.Article.first = "Grace"; last = "Hopper" } in
  let article =
    Bib.Article.make ~id:1 ~authors:[ author ] ~title:"Compilers" ~conf:"ACM"
      ~year:1952 ~size_bytes:1000
  in
  let msd = Bib.Bib_query.msd article in
  Bib.Bib_index.store_file index ~msd { Storage.Block_store.name = "a1"; size_bytes = 1000 };
  ignore
    (Bib.Bib_index.insert_mapping index ~parent:(Bib.Bib_query.author_q author) ~child:msd);
  (* The query itself is not indexed; generalizing drops the year and finds
     the author entry, which specializes straight to the descriptor. *)
  let query = Bib.Bib_query.author_year author 1952 in
  Trace.begin_trace tracer ~root:(Bib.Bib_query.to_string query);
  let results = Bib.Bib_index.search_with_generalization index query in
  Trace.end_trace tracer;
  Alcotest.(check int) "found the article" 1 (List.length results);
  match Trace.traces tracer with
  | [ t ] ->
      let outcomes = List.map (fun s -> s.Trace.outcome) t.Trace.spans in
      let tail =
        match List.rev outcomes with b :: a :: _ -> [ a; b ] | short -> short
      in
      Alcotest.(check bool) "first probe missed" true
        (List.hd outcomes = Trace.Not_found);
      Alcotest.(check bool) "ends Generalized then Msd_reached" true
        (tail = [ Trace.Generalized; Trace.Msd_reached ]);
      Alcotest.(check int) "per-outcome counters agree"
        (List.length t.Trace.spans)
        (Metrics.counter_total (Metrics.snapshot registry)
           "p2pindex_index_lookup_steps_total")
  | other -> Alcotest.failf "expected one trace, got %d" (List.length other)

(* ------------------------------------------------------------------ *)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "obs:metrics",
      [
        Alcotest.test_case "counter basics" `Quick counter_basics;
        Alcotest.test_case "instrument identity" `Quick counter_identity;
        Alcotest.test_case "kind and name validation" `Quick kind_mismatch_rejected;
        Alcotest.test_case "gauge basics" `Quick gauge_basics;
        Alcotest.test_case "histogram observe/quantile" `Quick histogram_observe_and_quantile;
        Alcotest.test_case "labelled counter query" `Quick counter_value_query;
      ]
      @ qcheck [ hist_monotone_prop; quantile_bucket_prop ] );
    ( "obs:trace",
      [
        Alcotest.test_case "span ordering" `Quick trace_span_ordering;
        Alcotest.test_case "ring buffer drops oldest" `Quick trace_ring_buffer;
        Alcotest.test_case "JSONL export text" `Quick trace_jsonl_text;
      ] );
    ( "obs:export",
      [
        Alcotest.test_case "prometheus round-trip" `Quick prometheus_roundtrip;
        Alcotest.test_case "table render" `Quick table_render;
        Alcotest.test_case "file round-trip" `Quick file_roundtrip;
        Alcotest.test_case "json parser round-trip" `Quick json_parser_roundtrip;
      ] );
    ( "obs:wiring",
      [
        Alcotest.test_case "network mirrors registry" `Quick network_registry_lock_step;
        Alcotest.test_case "cache counters" `Quick cache_counters;
        Alcotest.test_case "flat sim registry = network accounting" `Quick
          flat_sim_registry_matches_network;
        Alcotest.test_case "generalization path trace" `Quick generalization_trace;
      ] );
  ]
