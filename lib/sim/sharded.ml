module Summary = Stdx.Stats.Summary

(* Shard s's slice of a total: a block partition with the remainder
   spread over the low shards, so sizes differ by at most one. *)
let[@hot] split total shards s = (total / shards) + if s < total mod shards then 1 else 0

(* Weyl-sequence seed mixing (the 64-bit golden ratio): shard streams are
   decorrelated without any shared PRNG state, and shard 0 keeps the
   caller's seed so a 1-shard run replays the unsharded stream exactly. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let shard_seed seed s =
  if s = 0 then seed else Int64.add seed (Int64.mul (Int64.of_int s) golden_gamma)

let shard_config (cfg : Runner.config) ~shards s =
  {
    cfg with
    Runner.node_count = split cfg.Runner.node_count shards s;
    article_count = split cfg.Runner.article_count shards s;
    query_count = split cfg.Runner.query_count shards s;
    seed = shard_seed cfg.Runner.seed s;
  }

let validate ?(shards = 1) ?(domains = 1) ?(per_run = false) ?(profiled = false)
    ?(concurrency = 1) ?(coalesce = false) (cfg : Runner.config) =
  let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  let replication = Runner.effective_replication cfg in
  if shards < 1 then fail "shards must be >= 1 (got %d)" shards
  else if domains < 1 then fail "domains must be >= 1 (got %d)" domains
  else if concurrency < 1 then fail "concurrency must be >= 1 (got %d)" concurrency
  else if coalesce && concurrency = 1 then
    fail "coalescing needs concurrency > 1 (overlapping sessions to merge)"
  else if
    shards > cfg.Runner.node_count
    || shards > cfg.Runner.article_count
    || shards > cfg.Runner.query_count
  then
    fail "shards %d need at least that many nodes, articles and queries (got %d/%d/%d)"
      shards cfg.Runner.node_count cfg.Runner.article_count cfg.Runner.query_count
  else if replication > cfg.Runner.node_count / shards then
    fail "replication %d does not fit the smallest of %d shards (%d nodes per shard)"
      replication shards (cfg.Runner.node_count / shards)
  else if per_run && shards > 1 then
    fail "replayed events, a shared registry and tracing are per-run facilities; \
          not available with shards > 1"
  else if profiled && Stdlib.min domains shards > 1 then
    (* GC word counters are per-domain in OCaml 5: a profile summed over
       racing domains would depend on the scheduler.  Profiled sharded
       runs execute on one worker (shards still partition the state). *)
    fail "profiling needs a single worker domain (GC counters are per-domain)"
  else Ok ()

(* The merged report: what the registry does not hold merges here —
   tallies add (summaries merge as streams, the peak takes the max), the
   per-node arrays concatenate in shard order (shard s's nodes occupy the
   dense id block [offset_s, offset_s + node_count_s)) and the storage
   totals add — and every count merges with the snapshots.  [config] is
   the caller's unsharded config, so derived metrics (per-query traffic,
   availability) read network-wide totals. *)
let merge_base (cfg : Runner.config) (reports : Runner.report list) =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let cat f = Array.concat (List.map f reports) in
  let summ f =
    List.fold_left (fun acc r -> Summary.merge acc (f r)) (Summary.create ()) reports
  in
  {
    Runner.config = cfg;
    interactions = summ (fun (r : Runner.report) -> r.Runner.interactions);
    hits = sum (fun r -> r.Runner.hits);
    hits_first_node = sum (fun r -> r.Runner.hits_first_node);
    errors = sum (fun r -> r.Runner.errors);
    error_probes = summ (fun (r : Runner.report) -> r.Runner.error_probes);
    unreachable = sum (fun r -> r.Runner.unreachable);
    session_latency = summ (fun (r : Runner.report) -> r.Runner.session_latency);
    peak_in_flight =
      List.fold_left (fun acc r -> Stdlib.max acc r.Runner.peak_in_flight) 0 reports;
    node_touches = cat (fun r -> r.Runner.node_touches);
    cached_keys = cat (fun r -> r.Runner.cached_keys);
    regular_keys = cat (fun r -> r.Runner.regular_keys);
    index_bytes = sum (fun r -> r.Runner.index_bytes);
    article_bytes = sum (fun r -> r.Runner.article_bytes);
    index_mappings = sum (fun r -> r.Runner.index_mappings);
    publish_bytes = sum (fun r -> r.Runner.publish_bytes);
    metrics =
      Obs.Metrics.merge_snapshots
        (List.map (fun (r : Runner.report) -> r.Runner.metrics) reports);
  }

(* Every shard exports the shared phase collector's running totals (and
   its own GC gauges) into its registry; the snapshot merge would sum
   them, counting early shards' phases once per later shard.  Drop those
   families and export the collector once, over the whole run. *)
let reprofile (base : Runner.report) phases ~since =
  let registry = Obs.Metrics.create () in
  Runner.export_profile registry phases ~since;
  let kept =
    List.filter
      (fun (f : Obs.Metrics.family) -> not (Runner.is_profile_family f.name))
      base.Runner.metrics
  in
  {
    base with
    Runner.metrics = Obs.Metrics.merge_snapshots [ kept; Obs.Metrics.snapshot registry ];
  }

(* The caller works instead of idling in [Domain.join]: N workers
   occupy N domains, not N + 1, and every stop-the-world minor
   collection waits on one domain fewer. *)
let run_workers workers work =
  let outcome f =
    match f () with v -> Ok v | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  let spawned = ref [] in
  let own =
    outcome (fun () ->
        for w = 1 to workers - 1 do
          spawned := Domain.spawn (fun () -> work w) :: !spawned
        done;
        work 0)
  in
  let others = List.rev_map (fun d -> outcome (fun () -> Domain.join d)) !spawned in
  List.map
    (function Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    (own :: others)

let run ?(shards = 1) ?(domains = 1) ?events ?metrics ?tracer ?phases
    ?(concurrency = 1) ?(coalesce = false) cfg =
  let per_run = events <> None || metrics <> None || tracer <> None in
  (match
     validate ~shards ~domains ~per_run ~profiled:(phases <> None) ~concurrency
       ~coalesce cfg
   with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Sharded.run: " ^ msg));
  if shards = 1 then
    (* One shard is the whole population under the caller's seed: the
       engine run itself. *)
    Engine.run ?events ?metrics ?tracer ?phases ~concurrency ~coalesce cfg
  else begin
    let since = Runner.gc_mark () in
    let workers = Stdlib.min domains shards in
    let run_shard s =
      Engine.run ?phases ~concurrency ~coalesce (shard_config cfg ~shards s)
    in
    let per_shard =
      if workers = 1 then Array.init shards run_shard
      else begin
        (* Stride assignment: worker w owns shards w, w+N, w+2N, ...  The
           assignment never influences results — shards share nothing —
           and the merge below reads slots in shard order, so any worker
           count produces identical output. *)
        let results = Array.make shards None in
        let worker w =
          let rec go s acc =
            if s >= shards then acc else go (s + workers) ((s, run_shard s) :: acc)
          in
          go w []
        in
        List.iter
          (List.iter (fun (s, r) -> results.(s) <- Some r))
          (run_workers workers worker);
        Array.map
          (function Some r -> r | None -> assert false (* stride covers all *))
          results
      end
    in
    let merged = merge_base cfg (Array.to_list per_shard) in
    match phases with Some p -> reprofile merged p ~since | None -> merged
  end
