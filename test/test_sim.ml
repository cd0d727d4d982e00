(* Simulation harness tests: correctness invariants of the user-session
   walk, the reproduction shapes at reduced scale, and the experiments
   plumbing.  Shapes (orderings, monotone effects) are asserted, not the
   paper's absolute numbers — those are recorded in EXPERIMENTS.md. *)

module Runner = Sim.Runner
module Experiments = Sim.Experiments
module Schemes = Bib.Schemes
module Policy = Cache.Policy

(* A small but non-trivial scale so the whole suite stays fast. *)
let small =
  {
    Runner.default_config with
    node_count = 50;
    article_count = 400;
    query_count = 3_000;
    seed = 7L;
  }

let run ?(scheme = Schemes.Simple) ?(policy = Policy.no_cache) () =
  Runner.run { small with scheme; policy }

let every_session_succeeds () =
  List.iter
    (fun scheme ->
      List.iter
        (fun policy ->
          let r = run ~scheme ~policy () in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: no unreachable targets" (Schemes.label scheme)
               (Policy.label policy))
            0 r.Runner.unreachable)
        Policy.paper_policies)
    (Schemes.all @ [ Schemes.Complex_ac ])

let determinism () =
  let a = run ~policy:(Policy.lru 10) () in
  let b = run ~policy:(Policy.lru 10) () in
  Alcotest.(check (float 0.0)) "same interactions" (Runner.interactions_mean a)
    (Runner.interactions_mean b);
  Alcotest.(check int) "same traffic" (Runner.response_bytes a) (Runner.response_bytes b);
  Alcotest.(check int) "same errors" a.Runner.errors b.Runner.errors

let flat_needs_fewest_interactions () =
  let by scheme = Runner.interactions_mean (run ~scheme ()) in
  let simple = by Schemes.Simple and flat = by Schemes.Flat and complex = by Schemes.Complex in
  Alcotest.(check bool)
    (Printf.sprintf "flat %.2f < simple %.2f" flat simple)
    true (flat < simple);
  Alcotest.(check bool)
    (Printf.sprintf "simple %.2f <= complex %.2f" simple complex)
    true (simple <= complex)

let flat_generates_most_traffic () =
  let by scheme = Runner.normal_traffic_per_query (run ~scheme ()) in
  Alcotest.(check bool) "flat most traffic" true
    (by Schemes.Flat > by Schemes.Simple && by Schemes.Flat > by Schemes.Complex)

let caching_reduces_interactions_and_traffic () =
  List.iter
    (fun scheme ->
      let base = run ~scheme () in
      let cached = run ~scheme ~policy:Policy.single_cache () in
      Alcotest.(check bool) "fewer interactions with cache" true
        (Runner.interactions_mean cached < Runner.interactions_mean base);
      Alcotest.(check bool) "less normal traffic with cache" true
        (Runner.normal_traffic_per_query cached < Runner.normal_traffic_per_query base))
    Schemes.all

let larger_caches_help_more () =
  let hit k = Runner.hit_ratio (run ~policy:(Policy.lru k) ()) in
  let h10 = hit 10 and h20 = hit 20 and h30 = hit 30 in
  Alcotest.(check bool)
    (Printf.sprintf "hit ratio grows: %.2f <= %.2f <= %.2f" h10 h20 h30)
    true
    (h10 <= h20 +. 0.02 && h20 <= h30 +. 0.02);
  let single = Runner.hit_ratio (run ~policy:Policy.single_cache ()) in
  Alcotest.(check bool) "unbounded beats bounded" true (h30 <= single +. 0.02)

let multi_cache_marginal_over_single () =
  let multi = run ~policy:Policy.multi_cache () in
  let single = run ~policy:Policy.single_cache () in
  Alcotest.(check bool) "multi at least as good" true
    (Runner.hit_ratio multi >= Runner.hit_ratio single -. 0.02);
  Alcotest.(check bool) "but within a few points (paper: marginal)" true
    (Runner.hit_ratio multi -. Runner.hit_ratio single < 0.15);
  Alcotest.(check bool) "multi stores more" true
    (Runner.cached_keys_mean multi >= Runner.cached_keys_mean single)

let most_hits_at_first_node () =
  let r = run ~policy:Policy.multi_cache () in
  Alcotest.(check bool)
    (Printf.sprintf "first-node share %.2f > 0.7" (Runner.first_node_hit_share r))
    true
    (Runner.first_node_hit_share r > 0.7)

let lru_respects_capacity () =
  List.iter
    (fun k ->
      let r = run ~policy:(Policy.lru k) () in
      Alcotest.(check bool)
        (Printf.sprintf "max cached %d <= %d" (Runner.cached_keys_max r) k)
        true
        (Runner.cached_keys_max r <= k))
    [ 10; 20; 30 ]

let no_cache_stores_nothing () =
  let r = run () in
  Alcotest.(check int) "no cached keys" 0 (Runner.cached_keys_max r);
  Alcotest.(check int) "no cache traffic" 0 (Runner.cache_bytes r);
  Alcotest.(check int) "no hits" 0 r.Runner.hits

let errors_only_author_year () =
  (* Without caching, errors are exactly the author+year queries (the only
     non-indexed shape in the workload): ~5% of the total. *)
  let r = run () in
  let share = float_of_int r.Runner.errors /. float_of_int small.query_count in
  Alcotest.(check bool)
    (Printf.sprintf "error share %.3f near 0.05" share)
    true
    (Float.abs (share -. 0.05) < 0.015);
  (* Each error costs roughly one extra probe. *)
  Alcotest.(check bool) "about one extra interaction per error" true
    (Stdx.Stats.Summary.mean r.Runner.error_probes < 1.5)

let caching_reduces_errors () =
  let base = (run ()).Runner.errors in
  let single = (run ~policy:Policy.single_cache ()).Runner.errors in
  let lru30 = (run ~policy:(Policy.lru 30) ()).Runner.errors in
  Alcotest.(check bool)
    (Printf.sprintf "single %d < lru30 %d < none %d" single lru30 base)
    true
    (single <= lru30 && lru30 < base)

let traffic_categories_consistent () =
  let r = run ~policy:Policy.single_cache () in
  Alcotest.(check bool) "requests billed" true (Runner.request_bytes r > 0);
  Alcotest.(check bool) "responses dominate requests" true
    (Runner.response_bytes r > Runner.request_bytes r);
  Alcotest.(check bool) "cache traffic present" true (Runner.cache_bytes r > 0);
  Alcotest.(check bool) "publishing was billed" true (r.Runner.publish_bytes > 0)

let touches_cover_all_interactions () =
  let r = run () in
  let total_touches = Array.fold_left ( + ) 0 r.Runner.node_touches in
  let total_interactions =
    let s = r.Runner.interactions in
    int_of_float
      (Float.round (Stdx.Stats.Summary.mean s *. float_of_int (Stdx.Stats.Summary.count s)))
  in
  Alcotest.(check int) "one touch per interaction" total_interactions total_touches

let substrate_independence () =
  (* The paper's layering claim: index-layer metrics are identical over the
     oracle resolver, Chord, Pastry, CAN and Kademlia — even though the
     ownership rules place keys on different nodes, the number of
     user-system interactions only depends on the index chains. *)
  let static = Runner.run { small with substrate = Runner.Static } in
  let chord = Runner.run { small with substrate = Runner.Chord } in
  let pastry = Runner.run { small with substrate = Runner.Pastry } in
  let can = Runner.run { small with substrate = Runner.Can } in
  let kademlia = Runner.run { small with substrate = Runner.Kademlia } in
  Alcotest.(check (float 1e-9)) "chord: same interactions"
    (Runner.interactions_mean static) (Runner.interactions_mean chord);
  Alcotest.(check int) "chord: same errors" static.Runner.errors chord.Runner.errors;
  Alcotest.(check (float 1e-9)) "pastry: same interactions"
    (Runner.interactions_mean static) (Runner.interactions_mean pastry);
  Alcotest.(check int) "pastry: same errors" static.Runner.errors pastry.Runner.errors;
  Alcotest.(check (float 1e-9)) "CAN: same interactions"
    (Runner.interactions_mean static) (Runner.interactions_mean can);
  Alcotest.(check int) "CAN: same errors" static.Runner.errors can.Runner.errors;
  Alcotest.(check (float 1e-9)) "Kademlia: same interactions"
    (Runner.interactions_mean static) (Runner.interactions_mean kademlia);
  Alcotest.(check int) "Kademlia: same errors" static.Runner.errors kademlia.Runner.errors

let chord_hops_charged_when_asked () =
  let chord =
    Runner.run { small with substrate = Runner.Chord; charge_route_hops = true }
  in
  Alcotest.(check bool) "routing overhead billed as maintenance" true
    (Runner.maintenance_bytes chord > 0)

let regular_keys_count_entries () =
  let r = run () in
  let total = Array.fold_left ( + ) 0 r.Runner.regular_keys in
  (* mappings + one stored file per article *)
  Alcotest.(check int) "entries = mappings + files" (r.Runner.index_mappings + small.article_count) total

let trace_replay_equals_generation () =
  (* Replaying the trace of the generated workload must reproduce the run
     bit-for-bit. *)
  let articles =
    Bib.Corpus.generate ~seed:small.seed
      (Bib.Corpus.default_config ~article_count:small.article_count)
  in
  let gen =
    Workload.Query_gen.create ~articles
      ~popularity:
        (Stdx.Power_law.fitted_cdf ~n:small.article_count)
      ~seed:(Int64.add small.seed 1_000_003L) ()
  in
  let events = Workload.Query_gen.events gen small.query_count in
  let generated = Runner.run { small with policy = Policy.lru 20 } in
  let replayed = Runner.run ~events { small with policy = Policy.lru 20 } in
  Alcotest.(check (float 0.0)) "same interactions"
    (Runner.interactions_mean generated) (Runner.interactions_mean replayed);
  Alcotest.(check int) "same hits" generated.Runner.hits replayed.Runner.hits;
  Alcotest.(check int) "same errors" generated.Runner.errors replayed.Runner.errors;
  Alcotest.(check int) "same traffic" (Runner.response_bytes generated)
    (Runner.response_bytes replayed)

let run_experiment grid id =
  match Experiments.find id with
  | Some e -> e.Experiments.run grid
  | None -> Alcotest.failf "unknown experiment %s" id

(* Experiments are read through the metrics they report, by name. *)
let metric (r : Experiments.result) name =
  match
    List.find_opt (fun (x : Obs.Bench_report.metric) -> String.equal x.name name) r.metrics
  with
  | Some x -> x.value
  | None -> Alcotest.failf "no metric %s" name

let metric_names (r : Experiments.result) prefix =
  List.filter_map
    (fun (x : Obs.Bench_report.metric) ->
      if String.starts_with ~prefix x.name then Some x.name else None)
    r.metrics

let experiments_quick_scale () =
  let scale =
    { Experiments.node_count = 40; article_count = 200; query_count = 1_000; seed = 3L }
  in
  let grid = Experiments.Grid.create scale in
  (* Every experiment runs and prints without error. *)
  List.iter
    (fun (e : Experiments.t) ->
      let r = e.run grid in
      Experiments.print r;
      Alcotest.(check bool) (Printf.sprintf "experiment %s reports metrics" e.id) true
        (r.metrics <> []))
    Experiments.all;
  Alcotest.(check bool) "unknown id rejected" true
    (Option.is_none (Experiments.find "fig99"))

let tiny_scale =
  { Experiments.node_count = 40; article_count = 200; query_count = 1_000; seed = 3L }

let experiments_typed_shapes () =
  let grid = Experiments.Grid.create tiny_scale in
  (* Every figure reports one metric per row of its table. *)
  let count id prefix = List.length (metric_names (run_experiment grid id) prefix) in
  Alcotest.(check int) "fig7: seven structures (author+conf and author-prefix at weight 0)" 7
    (count "fig7" "mix_observed/");
  Alcotest.(check int) "fig11: 3 schemes x 5 policies" 15 (count "fig11" "interactions/");
  Alcotest.(check int) "fig12: 3 schemes x 6 policies" 18 (count "fig12" "normal_bytes/");
  Alcotest.(check int) "fig13: 3 schemes x 5 caching policies" 15 (count "fig13" "hit_ratio/");
  Alcotest.(check int) "fig13 first-node: one per scheme" 3
    (count "fig13" "first_node_share/");
  Alcotest.(check int) "fig14: 3 schemes x 5 caching policies" 15
    (count "fig14" "cached_keys/");
  Alcotest.(check int) "fig15: three policies" 3 (count "fig15" "busiest_share/");
  Alcotest.(check int) "table1: 3 policies x 3 schemes" 9 (count "table1" "errors/");
  Alcotest.(check int) "storage: three rows" 3 (count "storage" "index_bytes/")

let hotspot_replication_monotone () =
  let r = run_experiment (Experiments.Grid.create tiny_scale) "ablation-hotspot" in
  Alcotest.(check int) "four replication levels" 4
    (List.length (metric_names r "busiest_share/"));
  let rec check_decreasing = function
    | a :: b :: rest ->
        let busiest k = metric r (Printf.sprintf "busiest_share/r%d" k) in
        let gini k = metric r (Printf.sprintf "gini/r%d" k) in
        Alcotest.(check bool)
          (Printf.sprintf "busiest %.3f >= %.3f as replicas grow" (busiest a) (busiest b))
          true
          (busiest a >= busiest b -. 1e-9);
        Alcotest.(check bool) "imbalance falls" true (gini a >= gini b -. 1e-9);
        check_decreasing (b :: rest)
    | [ _ ] | [] -> ()
  in
  check_decreasing [ 1; 2; 4; 8 ]

let replication_availability_monotone () =
  let r = run_experiment (Experiments.Grid.create tiny_scale) "ablation-replication" in
  (* For a fixed failure fraction, availability grows with replication. *)
  List.iter
    (fun fraction ->
      let available k = metric r (Printf.sprintf "available_keys/r%d/f%s" k fraction) in
      let rec check = function
        | a :: b :: rest ->
            Alcotest.(check bool)
              (Printf.sprintf "r=%d availability %.2f <= r=%d %.2f" a (available a) b
                 (available b))
              true
              (available a <= available b +. 1e-9);
            check (b :: rest)
        | [ _ ] | [] -> ()
      in
      check [ 1; 2; 3 ])
    [ "0_1"; "0_3"; "0_5" ]

let fig15_caching_relieves_hotspot () =
  let r = run_experiment (Experiments.Grid.create tiny_scale) "fig15" in
  let no_cache = metric r "busiest_share/no_cache" in
  let single = metric r "busiest_share/single" in
  Alcotest.(check bool)
    (Printf.sprintf "single %.3f <= no-cache %.3f" single no_cache)
    true
    (single <= no_cache +. 0.01)

let scheme_variant_ablation () =
  let r = run_experiment (Experiments.Grid.create tiny_scale) "ablation-scheme" in
  let both name = (metric r (name ^ "/complex"), metric r (name ^ "/complex_ac")) in
  let complex, complex_ac = both "errors" in
  Alcotest.(check bool) "entry point removes errors" true (complex_ac < complex);
  let complex, complex_ac = both "interactions" in
  Alcotest.(check bool) "entry point shortens lookups" true (complex_ac <= complex +. 1e-9);
  let complex, complex_ac = both "index_mb" in
  Alcotest.(check bool) "entry point costs storage" true (complex_ac > complex)

let experiments_grid_memoizes () =
  let scale =
    { Experiments.node_count = 40; article_count = 200; query_count = 500; seed = 3L }
  in
  let grid = Experiments.Grid.create scale in
  let a = Experiments.Grid.report grid ~scheme:Schemes.Simple ~policy:Policy.no_cache in
  let b = Experiments.Grid.report grid ~scheme:Schemes.Simple ~policy:Policy.no_cache in
  (* lint: allow phys-equal — the memoization contract under test is physical identity *)
  Alcotest.(check bool) "same physical report" true (a == b)

let storage_ordering () =
  let scale =
    { Experiments.node_count = 40; article_count = 400; query_count = 10; seed = 5L }
  in
  let r = run_experiment (Experiments.Grid.create scale) "storage" in
  Alcotest.(check (list string)) "rows ordered"
    [ "index_bytes/simple"; "index_bytes/flat"; "index_bytes/complex" ]
    (metric_names r "index_bytes/");
  let bytes scheme = metric r ("index_bytes/" ^ scheme) in
  Alcotest.(check bool) "simple cheapest" true (bytes "simple" < bytes "complex");
  Alcotest.(check bool) "flat most expensive" true (bytes "complex" < bytes "flat");
  Alcotest.(check bool) "index is a small fraction of data" true
    (metric r "index_to_data_ratio/simple" < 0.02)

let suite =
  [
    ( "sim:walk",
      [
        Alcotest.test_case "every session succeeds" `Slow every_session_succeeds;
        Alcotest.test_case "deterministic" `Quick determinism;
        Alcotest.test_case "touches cover interactions" `Quick touches_cover_all_interactions;
        Alcotest.test_case "regular keys count entries" `Quick regular_keys_count_entries;
        Alcotest.test_case "trace replay equals generation" `Quick
          trace_replay_equals_generation;
      ] );
    ( "sim:shapes",
      [
        Alcotest.test_case "flat fewest interactions" `Quick flat_needs_fewest_interactions;
        Alcotest.test_case "flat most traffic" `Quick flat_generates_most_traffic;
        Alcotest.test_case "caching helps" `Quick caching_reduces_interactions_and_traffic;
        Alcotest.test_case "larger caches help more" `Slow larger_caches_help_more;
        Alcotest.test_case "multi marginal over single" `Quick multi_cache_marginal_over_single;
        Alcotest.test_case "hits concentrate at first node" `Quick most_hits_at_first_node;
        Alcotest.test_case "LRU capacity respected" `Slow lru_respects_capacity;
        Alcotest.test_case "no-cache stores nothing" `Quick no_cache_stores_nothing;
        Alcotest.test_case "errors are author+year" `Quick errors_only_author_year;
        Alcotest.test_case "caching reduces errors" `Quick caching_reduces_errors;
        Alcotest.test_case "traffic categories" `Quick traffic_categories_consistent;
      ] );
    ( "sim:substrate",
      [
        Alcotest.test_case "substrate independence" `Slow substrate_independence;
        Alcotest.test_case "chord hops charged" `Slow chord_hops_charged_when_asked;
      ] );
    ( "sim:experiments",
      [
        Alcotest.test_case "all experiments print" `Slow experiments_quick_scale;
        Alcotest.test_case "grid memoizes" `Quick experiments_grid_memoizes;
        Alcotest.test_case "storage ordering" `Quick storage_ordering;
        Alcotest.test_case "typed output shapes" `Slow experiments_typed_shapes;
        Alcotest.test_case "hotspot replication monotone" `Quick hotspot_replication_monotone;
        Alcotest.test_case "replication availability monotone" `Quick
          replication_availability_monotone;
        Alcotest.test_case "caching relieves the hotspot" `Slow fig15_caching_relieves_hotspot;
        Alcotest.test_case "scheme variant ablation" `Quick scheme_variant_ablation;
      ] );
  ]
