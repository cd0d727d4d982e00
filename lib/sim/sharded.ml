module Summary = Stdx.Stats.Summary

type report = {
  engine : Engine.report;
  shard_count : int;
  domain_count : int;
  per_shard : Engine.report array;
}

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

let validate ~shards ~domains (cfg : Runner.config) =
  if shards < 1 then invalid_arg "Sharded.run: shards must be >= 1";
  if domains < 1 then invalid_arg "Sharded.run: domains must be >= 1";
  if
    shards > cfg.Runner.node_count
    || shards > cfg.Runner.article_count
    || shards > cfg.Runner.query_count
  then
    invalid_arg
      "Sharded.run: every shard needs at least one node, one article and one \
       query";
  if Runner.effective_replication cfg > cfg.Runner.node_count / shards then
    invalid_arg
      "Sharded.run: the smallest shard cannot hold the replication factor \
       (replication needs that many distinct nodes per shard)"

(* The merged sequential report: sums for every count and byte field,
   streaming-summary merges for the distributions, concatenation in shard
   order for the per-node arrays (shard s's nodes occupy the dense id
   block [offset_s, offset_s + node_count_s)), and the snapshot merge for
   the registries.  [config] is the caller's unsharded config, so derived
   metrics (per-query traffic, availability) read network-wide totals. *)
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
    request_bytes = sum (fun r -> r.Runner.request_bytes);
    response_bytes = sum (fun r -> r.Runner.response_bytes);
    cache_bytes = sum (fun r -> r.Runner.cache_bytes);
    maintenance_bytes = sum (fun r -> r.Runner.maintenance_bytes);
    node_touches = cat (fun r -> r.Runner.node_touches);
    cached_keys = cat (fun r -> r.Runner.cached_keys);
    regular_keys = cat (fun r -> r.Runner.regular_keys);
    index_bytes = sum (fun r -> r.Runner.index_bytes);
    article_bytes = sum (fun r -> r.Runner.article_bytes);
    index_mappings = sum (fun r -> r.Runner.index_mappings);
    publish_bytes = sum (fun r -> r.Runner.publish_bytes);
    network_messages = sum (fun r -> r.Runner.network_messages);
    rpc_calls = sum (fun r -> r.Runner.rpc_calls);
    rpc_exhausted = sum (fun r -> r.Runner.rpc_exhausted);
    rpc_timeouts = sum (fun r -> r.Runner.rpc_timeouts);
    rpc_retries = sum (fun r -> r.Runner.rpc_retries);
    rpc_hedges = sum (fun r -> r.Runner.rpc_hedges);
    rpc_hedges_won = sum (fun r -> r.Runner.rpc_hedges_won);
    rpc_duplicates_suppressed = sum (fun r -> r.Runner.rpc_duplicates_suppressed);
    rpc_lost_messages = sum (fun r -> r.Runner.rpc_lost_messages);
    quorum_reads = sum (fun r -> r.Runner.quorum_reads);
    quorum_stale_reads = sum (fun r -> r.Runner.quorum_stale_reads);
    quorum_read_repairs = sum (fun r -> r.Runner.quorum_read_repairs);
    quorum_writes = sum (fun r -> r.Runner.quorum_writes);
    quorum_write_failures = sum (fun r -> r.Runner.quorum_write_failures);
    antientropy_rounds = sum (fun r -> r.Runner.antientropy_rounds);
    antientropy_digest_bytes = sum (fun r -> r.Runner.antientropy_digest_bytes);
    antientropy_shipped_bytes = sum (fun r -> r.Runner.antientropy_shipped_bytes);
    antientropy_full_state_bytes =
      sum (fun r -> r.Runner.antientropy_full_state_bytes);
    metrics =
      Obs.Metrics.merge_snapshots
        (List.map (fun (r : Runner.report) -> r.Runner.metrics) reports);
  }

let merge_engine ~concurrency ~coalesce (cfg : Runner.config)
    (reports : Engine.report list) =
  {
    Engine.base = merge_base cfg (List.map (fun e -> e.Engine.base) reports);
    concurrency;
    coalesce;
    coalesced = List.fold_left (fun acc e -> acc + e.Engine.coalesced) 0 reports;
    session_latency =
      List.fold_left
        (fun acc e -> Summary.merge acc e.Engine.session_latency)
        (Summary.create ()) reports;
    peak_in_flight =
      List.fold_left (fun acc e -> Stdlib.max acc e.Engine.peak_in_flight) 0 reports;
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

let run ?(shards = 1) ?(domains = 1) ?phases ?(concurrency = 1)
    ?(coalesce = false) cfg =
  validate ~shards ~domains cfg;
  let workers = Stdlib.min domains shards in
  (match phases with
  | Some _ when workers > 1 ->
      (* GC word counters are per-domain in OCaml 5: a profile summed over
         racing domains would depend on the scheduler.  Profiled sharded
         runs execute on one worker (shards still partition the state). *)
      invalid_arg "Sharded.run: profiling requires a single worker domain"
  | Some _ | None -> ());
  if shards = 1 then begin
    (* Degeneration: one shard IS the engine run — same code path, same
       seed, so report and snapshot are byte-for-byte {!Engine.run}'s. *)
    let e = Engine.run ?phases ~concurrency ~coalesce cfg in
    { engine = e; shard_count = 1; domain_count = 1; per_shard = [| e |] }
  end
  else begin
    let since = Runner.gc_mark () in
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
        let worker w () =
          let rec go s acc =
            if s >= shards then acc else go (s + workers) ((s, run_shard s) :: acc)
          in
          go w []
        in
        let joined =
          Array.map Domain.join
            (Array.init workers (fun w -> Domain.spawn (worker w)))
        in
        Array.iter
          (List.iter (fun (s, r) -> results.(s) <- Some r))
          joined;
        Array.map
          (function Some r -> r | None -> assert false (* stride covers all *))
          results
      end
    in
    let engine =
      merge_engine ~concurrency ~coalesce cfg (Array.to_list per_shard)
    in
    let engine =
      match phases with
      | Some p -> { engine with Engine.base = reprofile engine.Engine.base p ~since }
      | None -> engine
    in
    { engine; shard_count = shards; domain_count = workers; per_shard }
  end
