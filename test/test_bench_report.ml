(* The perf-observability layer: structured bench reports, the phase
   profiler, and the benchdiff comparison engine behind the CI gate. *)

module Report = Obs.Bench_report
module Diff = Obs.Bench_diff
module Phase = Obs.Phase

let scale =
  { Report.node_count = 100; article_count = 1_000; query_count = 5_000; seed = 42L }

let sample_report ?(label = "sample") ?(timed = false) () =
  let time_ns_per_run = if timed then Some 812.5 else None in
  let wall_ns = if timed then Some 123_456_789L else None in
  {
    Report.label;
    timed;
    scale;
    micro =
      [
        {
          Report.micro_name = "sha1/256B";
          runs = 1_000;
          time_ns_per_run;
          minor_words_per_run = 1_834.5;
          promoted_words_per_run = 14.25;
          major_words_per_run = 15.0;
        };
        {
          Report.micro_name = "xpath/covers";
          runs = 1_000;
          time_ns_per_run = None;
          minor_words_per_run = 0.0;
          promoted_words_per_run = 0.0;
          major_words_per_run = 0.0;
        };
      ];
    experiments =
      [
        {
          Report.exp_id = "table1";
          wall_ns;
          gc =
            {
              Report.minor_words = 1.5e7;
              promoted_words = 2.5e5;
              major_words = 3.0e5;
              minor_collections = 57;
              major_collections = 3;
            };
          exp_metrics =
            [
              Report.metric "errors/simple/no_cache" Report.Lower_better 250.0;
              Report.metric "hit_ratio/simple/lru30" Report.Higher_better 0.62;
              Report.metric "gini/no_cache" Report.Informational 0.83;
            ];
        };
      ];
  }

(* ------------------------------------------------------------------ *)
(* Schema round-trip and determinism, through the report file the bench
   driver writes and reads. *)

let with_temp f =
  let path = Filename.temp_file "bench_report" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let text_of t =
  with_temp (fun path ->
      Report.write ~path t;
      In_channel.with_open_bin path In_channel.input_all)

let parse text =
  with_temp (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      Report.read ~path)

let roundtrip () =
  List.iter
    (fun timed ->
      let t = sample_report ~timed () in
      let text = text_of t in
      match parse text with
      | Error msg -> Alcotest.failf "parse failed: %s" msg
      | Ok back ->
          (* The canonical byte form is the equality we care about: if the
             re-serialization matches, every field survived. *)
          Alcotest.(check string)
            (Printf.sprintf "canonical bytes (timed=%b)" timed)
            text (text_of back))
    [ false; true ]

let serialization_deterministic () =
  let a = text_of (sample_report ()) in
  let b = text_of (sample_report ()) in
  Alcotest.(check string) "equal values, equal bytes" a b;
  (* Strict mode keeps every wall-clock field null. *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "no timing bytes in strict mode" true
    (contains a "\"time_ns_per_run\":null" && contains a "\"wall_ns\":null")

let schema_guard () =
  let reject label text =
    match parse text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" label
  in
  reject "wrong schema" {|{"schema":"other.thing","version":1}|};
  reject "future version"
    {|{"schema":"p2pindex.bench_report","version":99,"label":"x","timed":false,"scale":{"node_count":1,"article_count":1,"query_count":1,"seed":"1"},"micro":[],"experiments":[]}|};
  reject "missing field" {|{"schema":"p2pindex.bench_report","version":1}|};
  reject "not json" "nonsense {"

let label_of_path () =
  Alcotest.(check string) "BENCH_ prefix stripped" "smoke"
    (Report.label_of_path "/ci/artifacts/BENCH_smoke.json");
  Alcotest.(check string) "plain name kept" "other"
    (Report.label_of_path "other.json")

let flatten_view () =
  let flat = Report.flatten (sample_report ()) in
  let names = List.map (fun (m : Report.metric) -> m.Report.name) flat in
  Alcotest.(check bool) "sorted" true
    (List.sort String.compare names = names);
  Alcotest.(check bool) "micro namespaced" true
    (List.mem "micro/sha1/256B/minor_words_per_run" names);
  Alcotest.(check bool) "experiment namespaced" true
    (List.mem "exp/table1/errors/simple/no_cache" names);
  Alcotest.(check bool) "gc namespaced" true
    (List.mem "exp/table1/gc/minor_collections" names);
  (* Strict mode: no timing metrics exist to compare. *)
  Alcotest.(check bool) "no wall metrics untimed" true
    (not (List.exists (fun n -> n = "exp/table1/wall_ns") names));
  let timed_names =
    List.map
      (fun (m : Report.metric) -> m.Report.name)
      (Report.flatten (sample_report ~timed:true ()))
  in
  Alcotest.(check bool) "wall metrics appear when timed" true
    (List.mem "exp/table1/wall_ns" timed_names
    && List.mem "micro/sha1/256B/time_ns_per_run" timed_names)

(* ------------------------------------------------------------------ *)
(* benchdiff verdicts, driven through real fixture files. *)

let with_fixture report f =
  match parse (text_of report) with
  | Error msg -> Alcotest.failf "fixture unreadable: %s" msg
  | Ok loaded -> f loaded

let scale_metric current_of report =
  (* Build a variant of [report] with table1's metric values rewritten. *)
  {
    report with
    Report.experiments =
      List.map
        (fun (e : Report.experiment) ->
          {
            e with
            Report.exp_metrics =
              List.map
                (fun (m : Report.metric) ->
                  { m with Report.value = current_of m })
                e.Report.exp_metrics;
          })
        report.Report.experiments;
  }

let find_row result name =
  match
    List.find_opt (fun (r : Diff.row) -> String.equal r.Diff.name name) result.Diff.rows
  with
  | Some row -> row
  | None -> Alcotest.failf "row %s not found" name

let verdicts () =
  let baseline = sample_report () in
  (* errors (lower-better) +10%: regression; hit_ratio (higher-better)
     +10%: improvement; gini informational: within regardless. *)
  let current =
    scale_metric
      (fun (m : Report.metric) -> m.Report.value *. 1.10)
      baseline
  in
  with_fixture baseline (fun baseline ->
      with_fixture current (fun current ->
          match Diff.compare_reports ~baseline current with
          | Error msg -> Alcotest.failf "diff failed: %s" msg
          | Ok result ->
              let verdict name =
                (find_row result name).Diff.verdict
              in
              Alcotest.(check bool) "lower-better rise regresses" true
                (verdict "exp/table1/errors/simple/no_cache" = Diff.Regression);
              Alcotest.(check bool) "higher-better rise improves" true
                (verdict "exp/table1/hit_ratio/simple/lru30" = Diff.Improvement);
              Alcotest.(check bool) "informational never fires" true
                (verdict "exp/table1/gini/no_cache" = Diff.Within);
              Alcotest.(check bool) "gate fails" false (Diff.ok result);
              Alcotest.(check bool) "render says FAIL" true
                (let s = Diff.render result in
                 String.length s >= 5
                 && String.sub s (String.length s - 5) 4 = "FAIL")))

let within_and_identical () =
  let baseline = sample_report () in
  with_fixture baseline (fun baseline ->
      with_fixture (sample_report ()) (fun current ->
          match Diff.compare_reports ~baseline current with
          | Error msg -> Alcotest.failf "diff failed: %s" msg
          | Ok result ->
              Alcotest.(check bool) "identical reports pass" true (Diff.ok result);
              Alcotest.(check int) "no regressions" 0 result.Diff.regressions;
              Alcotest.(check int) "no missing" 0 result.Diff.missing);
      (* GC metrics get the loose 35% band: +20% stays within. *)
      let drifted =
        {
          baseline with
          Report.experiments =
            List.map
              (fun (e : Report.experiment) ->
                {
                  e with
                  Report.gc =
                    {
                      e.Report.gc with
                      Report.minor_words = e.Report.gc.Report.minor_words *. 1.2;
                    };
                })
              baseline.Report.experiments;
        }
      in
      match Diff.compare_reports ~baseline drifted with
      | Error msg -> Alcotest.failf "diff failed: %s" msg
      | Ok result ->
          Alcotest.(check bool) "alloc drift inside band" true (Diff.ok result))

let missing_and_added () =
  let baseline = sample_report () in
  let current =
    {
      (sample_report ()) with
      Report.micro = [];
      experiments =
        List.map
          (fun (e : Report.experiment) ->
            {
              e with
              Report.exp_metrics =
                Report.metric "brand_new" Report.Lower_better 1.0 :: e.Report.exp_metrics;
            })
          baseline.Report.experiments;
    }
  in
  match Diff.compare_reports ~baseline current with
  | Error msg -> Alcotest.failf "diff failed: %s" msg
  | Ok result ->
      Alcotest.(check bool) "lost micro coverage fails the gate" false (Diff.ok result);
      Alcotest.(check bool) "missing counted" true (result.Diff.missing > 0);
      Alcotest.(check bool) "added never fails" true
        ((find_row result "exp/table1/brand_new").Diff.verdict = Diff.Added);
      (* A gate that can be passed by deleting metrics is no gate; an
         all-Added current alone must not fail. *)
      Alcotest.(check int) "added count" 1 result.Diff.added

let scale_mismatch () =
  let baseline = sample_report () in
  let other =
    { (sample_report ()) with Report.scale = { scale with Report.node_count = 500 } }
  in
  match Diff.compare_reports ~baseline other with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "different scales must not compare"

let zero_baseline_regresses () =
  (* An error count of 0 regresses the moment it moves at all. *)
  let baseline =
    scale_metric (fun _ -> 0.0) (sample_report ())
  in
  let current =
    scale_metric
      (fun (m : Report.metric) ->
        if m.Report.better = Report.Lower_better then 1.0 else 0.0)
      baseline
  in
  match Diff.compare_reports ~baseline current with
  | Error msg -> Alcotest.failf "diff failed: %s" msg
  | Ok result ->
      Alcotest.(check bool) "0 -> 1 is a regression" true
        ((find_row result "exp/table1/errors/simple/no_cache").Diff.verdict
        = Diff.Regression)

(* Collection counts move by one with heap-state phase: one collection of
   slack sits on top of their band, so 0 -> 1 stays within while 0 -> 2
   still regresses. *)
let collection_count_slack () =
  let with_major n (r : Report.t) =
    {
      r with
      Report.experiments =
        List.map
          (fun (e : Report.experiment) ->
            { e with Report.gc = { e.Report.gc with Report.major_collections = n } })
          r.Report.experiments;
    }
  in
  let baseline = with_major 0 (sample_report ()) in
  let verdict n =
    match Diff.compare_reports ~baseline (with_major n baseline) with
    | Error msg -> Alcotest.failf "diff failed: %s" msg
    | Ok result -> (find_row result "exp/table1/gc/major_collections").Diff.verdict
  in
  Alcotest.(check bool) "0 -> 1 is within" true (verdict 1 = Diff.Within);
  Alcotest.(check bool) "0 -> 2 is a regression" true (verdict 2 = Diff.Regression)

let threshold_override () =
  let baseline = sample_report () in
  let current =
    scale_metric (fun (m : Report.metric) -> m.Report.value *. 1.10) baseline
  in
  match
    Diff.compare_reports ~threshold_for:(fun _ -> 0.5) ~baseline current
  with
  | Error msg -> Alcotest.failf "diff failed: %s" msg
  | Ok result -> Alcotest.(check bool) "50% band swallows +10%" true (Diff.ok result)

(* ------------------------------------------------------------------ *)
(* Phase profiler. *)

let fake_clock () =
  let t = ref 0L in
  fun () ->
    t := Int64.add !t 10L;
    !t

let phase_accounting () =
  let p = Phase.create ~clock:(fake_clock ()) () in
  Alcotest.(check int) "42" 42 (Phase.span p "walk" (fun () -> 42));
  (* Small enough to land on the minor heap (< 256 words). *)
  ignore (Phase.span p "walk" (fun () -> Sys.opaque_identity (Array.make 100 0)));
  Phase.span p "setup" (fun () -> ());
  (* Sorted deterministically by phase name. *)
  match Phase.entries p with
  | [ setup; e ] ->
      Alcotest.(check (list string)) "entry order" [ "setup"; "walk" ]
        [ setup.Phase.phase; e.Phase.phase ];
      Alcotest.(check int) "walk calls" 2 e.Phase.calls;
      (* Each span reads the fake clock twice, 10 ns apart. *)
      Alcotest.(check int64) "walk elapsed" 20L e.Phase.elapsed_ns;
      Alcotest.(check bool) "allocation attributed" true (e.Phase.minor_words > 0.0)
  | entries -> Alcotest.failf "expected two buckets, got %d" (List.length entries)

let phase_records_on_raise () =
  let p = Phase.create ~clock:(fake_clock ()) () in
  Alcotest.check_raises "span re-raises" (Failure "boom") (fun () ->
      Phase.span p "walk" (fun () -> failwith "boom"));
  match Phase.entries p with
  | [ e ] ->
      Alcotest.(check string) "bucket" "walk" e.Phase.phase;
      Alcotest.(check int) "raise still recorded" 1 e.Phase.calls;
      Alcotest.(check int64) "elapsed recorded" 10L e.Phase.elapsed_ns
  | _ -> Alcotest.fail "walk bucket missing after raise"

let span_opt_none_is_free () =
  Alcotest.(check int) "plain call" 7 (Phase.span_opt None "walk" (fun () -> 7))

(* ------------------------------------------------------------------ *)
(* Runner integration: the gauge families are strictly opt-in. *)

let small_config =
  {
    Sim.Runner.default_config with
    node_count = 50;
    article_count = 300;
    query_count = 200;
  }

let family_names (snapshot : Obs.Metrics.snapshot) =
  List.map (fun (f : Obs.Metrics.family) -> f.Obs.Metrics.name) snapshot

let has_prefix prefix name =
  String.length name >= String.length prefix
  && String.sub name 0 (String.length prefix) = prefix

let runner_gauges_opt_in () =
  let plain = Sim.Runner.run small_config in
  let profiled_families =
    let phases = Phase.create () in
    let r = Sim.Runner.run ~phases small_config in
    family_names r.Sim.Runner.metrics
  in
  let plain_families = family_names plain.Sim.Runner.metrics in
  Alcotest.(check bool) "no phase/gc families by default" false
    (List.exists
       (fun n -> has_prefix "p2pindex_phase_" n || has_prefix "p2pindex_gc_" n)
       plain_families);
  List.iter
    (fun family ->
      Alcotest.(check bool) (family ^ " present when profiled") true
        (List.mem family profiled_families))
    [
      "p2pindex_phase_elapsed_ns";
      "p2pindex_phase_minor_words";
      "p2pindex_gc_minor_words";
      "p2pindex_gc_major_collections";
      "p2pindex_gc_heap_words";
    ];
  (* Profiling must not perturb the simulation itself. *)
  let profiled = Sim.Runner.run ~phases:(Phase.create ()) small_config in
  Alcotest.(check int) "same errors" plain.Sim.Runner.errors profiled.Sim.Runner.errors;
  Alcotest.(check int) "same traffic" (Sim.Runner.request_bytes plain)
    (Sim.Runner.request_bytes profiled)

let engine_profiles_walk_per_quantum () =
  let phases = Phase.create () in
  let r = Sim.Engine.run ~phases ~concurrency:4 small_config in
  Alcotest.(check int) "all sessions finish" small_config.Sim.Runner.query_count
    (Stdx.Stats.Summary.count r.Sim.Runner.interactions);
  match List.find_opt (fun (e : Phase.entry) -> e.phase = "walk") (Phase.entries phases) with
  | Some e ->
      (* Quanta outnumber sessions: every session takes at least one. *)
      Alcotest.(check bool) "at least one quantum per session" true
        (e.Phase.calls >= small_config.Sim.Runner.query_count)
  | None -> Alcotest.fail "engine did not profile the walk phase"

(* A sharded profiled run shares one phase collector across its shards;
   its gauges must count every session once, not re-add earlier shards'
   running totals at every later shard's export. *)
let sharded_profile_exported_once () =
  let cfg = { small_config with node_count = 200; query_count = 400 } in
  let r = Sim.Sharded.run ~shards:4 ~phases:(Phase.create ()) cfg in
  let metrics = r.Sim.Runner.metrics in
  let gauge name labels =
    match List.find_opt (fun (f : Obs.Metrics.family) -> f.name = name) metrics with
    | None -> Alcotest.failf "%s missing" name
    | Some f -> (
        match List.find_opt (fun (s : Obs.Metrics.series) -> s.labels = labels) f.series with
        | Some { value = Obs.Metrics.Gauge_value v; _ } -> v
        | Some _ | None -> Alcotest.failf "%s: no gauge series" name)
  in
  Alcotest.(check int) "tally calls = sessions" cfg.Sim.Runner.query_count
    (int_of_float (gauge "p2pindex_phase_calls" [ ("phase", "tally") ]));
  Alcotest.(check int) "setup once per shard" 4
    (int_of_float (gauge "p2pindex_phase_calls" [ ("phase", "setup") ]));
  Alcotest.(check bool) "heap size is one reading" true
    (gauge "p2pindex_gc_heap_words" [] > 0.0)

let suite =
  [
    ( "obs:bench-report",
      [
        Alcotest.test_case "round-trip" `Quick roundtrip;
        Alcotest.test_case "deterministic bytes" `Quick serialization_deterministic;
        Alcotest.test_case "schema guard" `Quick schema_guard;
        Alcotest.test_case "label of path" `Quick label_of_path;
        Alcotest.test_case "flatten" `Quick flatten_view;
      ] );
    ( "obs:bench-diff",
      [
        Alcotest.test_case "verdicts on fixtures" `Quick verdicts;
        Alcotest.test_case "identical and within-band pass" `Quick within_and_identical;
        Alcotest.test_case "missing fails, added passes" `Quick missing_and_added;
        Alcotest.test_case "scale mismatch rejected" `Quick scale_mismatch;
        Alcotest.test_case "zero baseline" `Quick zero_baseline_regresses;
        Alcotest.test_case "threshold override" `Quick threshold_override;
        Alcotest.test_case "collection counts get one of slack" `Quick collection_count_slack;
      ] );
    ( "obs:phase",
      [
        Alcotest.test_case "accounting with injected clock" `Quick phase_accounting;
        Alcotest.test_case "records on raise" `Quick phase_records_on_raise;
        Alcotest.test_case "span_opt none" `Quick span_opt_none_is_free;
      ] );
    ( "sim:profiling",
      [
        Alcotest.test_case "gauges are opt-in" `Quick runner_gauges_opt_in;
        Alcotest.test_case "engine profiles quanta" `Quick engine_profiles_walk_per_quantum;
        Alcotest.test_case "sharded profile exported once" `Quick
          sharded_profile_exported_once;
      ] );
  ]
