(* The benchmark's three lanes over one workload.

   - e2e: the workload's [simulate] command as a child process, timed from
     spawn to reap: set-up-only runs and full runs.
   - counts: one profiled run on one worker domain, read for exact
     allocation and registry counts.
   - trace: the command on one and on two worker domains, then the
     in-process traced replay of the sequential command next to a run of
     that command on one domain, then the substrate replay of the traced
     probe keys.

   One seed's inputs differ from another's by about a tenth in the work a
   session does, so a lane runs the workload on [sub_seeds] seeds derived
   from the given one and reports medians over all of them.

   Every run is checked.  It must exit 0; its report must equal every
   other report at its seed, and at seed 42 the pinned digest; the traced
   replay must reproduce the mirrored command's metrics snapshot, and
   reach every target on a workload without churn.  A failed check fails
   the sessions of the run it concerns. *)

type settings = {
  cli : string;  (** The [p2pindex_cli.exe] binary. *)
  out_dir : string;  (** Reports, snapshots and spans land here. *)
  seed : int64;
  reps : int;  (** Set-up runs, and rounds of every sampled command, at least. *)
  seconds : float;  (** Sampling continues until this much time has passed. *)
}

let sub_seeds = 10

(* The traced replay covers enough runs for this many sessions, so that
   the 99.9th percentile of session wall time has ten samples beyond it. *)
let traced_sessions = 10_000

type t = {
  settings : settings;
  w : Workloads.t;
  mutable samples : (string * float list) list;
  mutable failures : string list;  (** Failed checks, newest first. *)
  mutable checks : int;
  mutable attempted : int;  (** Sessions run. *)
  mutable failed : int;  (** Sessions of failed runs and failed checks. *)
  mutable reports : (int64 * string) list;  (** The first report at each seed. *)
}

let create settings w =
  { settings; w; samples = []; failures = []; checks = 0; attempted = 0; failed = 0; reports = [] }

(* Sub-seed [i]: the seed itself for 0; the others add [i * 2^32], so that
   nearby seeds share no inputs. *)
let sub_seed t i =
  Int64.add t.settings.seed (Int64.shift_left (Int64.of_int (i mod sub_seeds)) 32)

let record t name v =
  let prev = Option.value (List.assoc_opt name t.samples) ~default:[] in
  t.samples <- (name, v :: prev) :: List.remove_assoc name t.samples

let samples t name = List.rev (Option.value (List.assoc_opt name t.samples) ~default:[])

let check t ~sessions name ok =
  t.checks <- t.checks + 1;
  if not ok then begin
    t.failures <- name :: t.failures;
    t.failed <- t.failed + sessions
  end

let path t file = Filename.concat t.settings.out_dir (t.w.name ^ "-" ^ file)

let rec queries_of = function
  | "--queries" :: n :: _ -> int_of_string n
  | _ :: rest -> queries_of rest
  | [] -> invalid_arg "Lanes.queries_of: no --queries"

(* One [simulate] child; [None] when it failed. *)
let spawn t ~label ~seed args =
  let sessions = queries_of args in
  t.attempted <- t.attempted + sessions;
  let r =
    Spawn.run ~stdout_path:(path t (label ^ ".out")) t.settings.cli
      ("simulate" :: "--seed" :: Int64.to_string seed :: args)
  in
  check t ~sessions
    (Printf.sprintf "%s run at seed %Ld exits 0 (got %d)" label seed r.status)
    (r.status = 0);
  if r.status = 0 then Some r else None

let digest s = Hashing.Sha1.to_hex (Hashing.Sha1.digest_string s)

(* Every report of a workload at one seed is the same, whatever the
   worker domains or profiling; at seed 42 it is the pinned one. *)
let same_report t ~seed label report =
  let sessions = t.w.queries in
  match List.assoc_opt seed t.reports with
  | None ->
      t.reports <- (seed, report) :: t.reports;
      if Int64.equal seed 42L then
        check t ~sessions
          (Printf.sprintf "%s report digest %s is the pinned %s" label (digest report)
             t.w.digest_seed42)
          (String.equal (digest report) t.w.digest_seed42)
  | Some first ->
      check t ~sessions
        (Printf.sprintf "%s report at seed %Ld equals the first one" label seed)
        (String.equal first report)

(* Runs [round i] for i = 0, 1, ... until [min_rounds] rounds have run
   and [seconds] have passed. *)
let rounds t ~min_rounds round =
  let t0 = Spawn.now_s () in
  let rec go i =
    if i < min_rounds || Spawn.now_s () -. t0 < t.settings.seconds then begin
      round i;
      go (i + 1)
    end
  in
  go 0

let median_of f rs = Stats.median (List.map f rs)

(* Round [i] runs the full command at sub-seed [i], after a set-up run in
   the first [reps] rounds; interleaving spreads both kinds of sample over
   the whole measurement. *)
let e2e t =
  let w = t.w and reps = t.settings.reps in
  rounds t ~min_rounds:(Stdlib.max reps sub_seeds) (fun i ->
      let seed = sub_seed t i in
      if i < reps then
        Option.iter
          (fun (r : Spawn.result) -> record t "setup_s" r.wall_s)
          (spawn t ~label:"setup" ~seed (Workloads.setup_args w));
      Option.iter
        (fun (r : Spawn.result) ->
          same_report t ~seed "full" r.stdout;
          record t "sessions_per_s" (float_of_int w.queries /. r.wall_s);
          record t "peak_rss_mb" r.peak_rss_mb)
        (spawn t ~label:"full" ~seed w.args))

(* A profiled run prints its report, a blank line, then the phase table. *)
let split_profile s =
  let rec blank i =
    if i + 1 >= String.length s then None
    else if s.[i] = '\n' && s.[i + 1] = '\n' then Some i
    else blank (i + 1)
  in
  match blank 0 with
  | Some i -> (String.sub s 0 (i + 1), String.sub s (i + 2) (String.length s - i - 2))
  | None -> (s, "")

type phase = { ms : float; minor_words : float; major_gcs : float }

(* The rows of the [--profile-phases] table: phase, calls, elapsed ms,
   minor words, promoted, major words, minor gcs, major gcs.  The table
   is read rather than the snapshot's [p2pindex_phase_*] gauges because a
   sharded run exports its shared collector once per shard, so those
   gauges sum running totals. *)
let phase_table profile =
  List.filter_map
    (fun line ->
      match List.map String.trim (String.split_on_char '|' line) with
      | [ ""; phase; calls; ms; minor; _; _; _; major_gcs; "" ]
        when Option.is_some (int_of_string_opt calls) ->
          Some
            ( phase,
              { ms = float_of_string ms; minor_words = float_of_string minor;
                major_gcs = float_of_string major_gcs } )
      | _ -> None)
    (String.split_on_char '\n' profile)

let per num den = if den = 0.0 then 0.0 else num /. den

let count_metrics ~sessions phases snap =
  let phase name = List.assoc name phases in
  let counter name = float_of_int (Obs.Metrics.counter_total snap name) in
  let hist_mean name =
    let sum, count =
      List.fold_left
        (fun acc (f : Obs.Metrics.family) ->
          if not (String.equal f.name name) then acc
          else
            List.fold_left
              (fun (s, c) (x : Obs.Metrics.series) ->
                match x.value with
                | Histogram_value h -> (s +. h.sum, c + h.count)
                | Counter_value _ | Gauge_value _ -> (s, c))
              acc f.series)
        (0.0, 0) snap
    in
    per sum (float_of_int count)
  in
  let hits = counter "p2pindex_cache_hits_total" in
  let rounds = counter "p2pindex_antientropy_rounds_total" in
  [
    ( "minor_words_per_session",
      per ((phase "walk").minor_words +. (phase "tally").minor_words) sessions );
    ("sim.phase.setup_s", (phase "setup").ms /. 1e3);
    ("sim.phase.walk_s", (phase "walk").ms /. 1e3);
    ("sim.phase.tally_s", (phase "tally").ms /. 1e3);
    ("sim.phase.report_s", (phase "report").ms /. 1e3);
    ("sim.phase.setup_minor_words", (phase "setup").minor_words);
    ("sim.phase.walk_minor_words", (phase "walk").minor_words);
    ("sim.phase.walk_major_collections", (phase "walk").major_gcs);
    ("dht.network.messages_per_session", per (counter "p2pindex_network_messages_total") sessions);
    ("dht.network.bytes_per_session", per (counter "p2pindex_network_bytes_total") sessions);
    ("dht.rpc.calls_per_session", per (counter "p2pindex_rpc_calls_total") sessions);
    ("dht.rpc.retries_per_session", per (counter "p2pindex_rpc_retries_total") sessions);
    ( "dht.rpc.exhausted_ratio",
      per (counter "p2pindex_rpc_exhausted_total") (counter "p2pindex_rpc_calls_total") );
    ( "cache.shortcut_cache.hit_ratio",
      per hits (hits +. counter "p2pindex_cache_misses_total") );
    ( "cache.shortcut_cache.evictions_per_session",
      per (counter "p2pindex_cache_evictions_total") sessions );
    ( "storage.quorum.read_repairs_per_session",
      per (counter "p2pindex_quorum_read_repairs_total") sessions );
    ( "storage.anti_entropy.shipped_bytes_per_round",
      per (counter "p2pindex_antientropy_shipped_bytes_total") rounds );
    ( "storage.anti_entropy.digest_bytes_per_round",
      per (counter "p2pindex_antientropy_digest_bytes_total") rounds );
    ( "churn.driver.events_per_session",
      per (counter "p2pindex_churn_failures_total" +. counter "p2pindex_churn_joins_total") sessions );
    ("sim.engine.coalesced_per_session", per (counter "p2pindex_engine_coalesced_total") sessions);
    ("prefix.prefix_index.covering_nodes_mean", hist_mean "p2pindex_prefix_covering_nodes");
  ]

(* The profiled run at the seed itself. *)
let counts t =
  let w = t.w and seed = t.settings.seed in
  let prom = path t "counts.prom" in
  Option.iter
    (fun (r : Spawn.result) ->
      let report, profile = split_profile r.stdout in
      same_report t ~seed "counts" report;
      let phases = phase_table profile in
      let has_phases =
        List.for_all (fun p -> List.mem_assoc p phases) [ "setup"; "walk"; "tally"; "report" ]
      in
      check t ~sessions:w.queries "counts run prints the phase table" has_phases;
      match Obs.Export.read_metrics ~path:prom with
      | Error e -> check t ~sessions:w.queries ("counts snapshot parses: " ^ e) false
      | Ok snap ->
          if has_phases then
            List.iter
              (fun (name, v) -> record t name v)
              (count_metrics ~sessions:(float_of_int w.queries) phases snap))
    (spawn t ~label:"counts" ~seed
       (Workloads.with_domains 1 w.args @ [ "--profile-phases"; "--metrics-out"; prom ]))

let trace t =
  let w = t.w in
  (* Round [i] runs the command at sub-seed [i] on one, then on two worker
     domains; the speedup is the median of the pairs' ratios. *)
  let pairs = ref [] in
  rounds t ~min_rounds:t.settings.reps (fun i ->
      let seed = sub_seed t i in
      let run label n =
        Option.map
          (fun (r : Spawn.result) ->
            same_report t ~seed label r.stdout;
            r)
          (spawn t ~label ~seed (Workloads.with_domains n w.args))
      in
      let one = run "domains1" 1 in
      let two = run "domains2" 2 in
      match (one, two) with
      | Some a, Some b -> pairs := (a, b) :: !pairs
      | _ -> ());
  if !pairs <> [] then begin
    let open Spawn in
    record t "sim.sharded.parallel_speedup" (median_of (fun (a, b) -> a.wall_s /. b.wall_s) !pairs);
    record t "process.cpu_s" (median_of (fun (_, b) -> b.cpu_s) !pairs);
    record t "process.cpu_utilisation" (median_of (fun (_, b) -> b.cpu_s /. b.wall_s) !pairs)
  end;
  let runs = (traced_sessions + w.queries - 1) / w.queries in
  let tr = Traced.create ~sessions:(runs * w.queries) in
  let prom = path t "mirror.prom" in
  let traced_s = ref 0.0 and mirrored_s = ref 0.0 in
  for i = 0 to runs - 1 do
    let seed = sub_seed t i in
    Option.iter
      (fun (m : Spawn.result) ->
        t.attempted <- t.attempted + w.queries;
        let unreachable = tr.unreachable in
        let snapshot, wall_s = Traced.run tr w ~seed in
        check t ~sessions:w.queries
          (Printf.sprintf "traced snapshot at seed %Ld equals the mirrored --metrics-out" seed)
          (String.equal (Obs.Prometheus.render snapshot)
             (In_channel.with_open_bin prom In_channel.input_all));
        if w.churn_free then
          check t ~sessions:(tr.unreachable - unreachable)
            (Printf.sprintf "traced sessions at seed %Ld all reach their target" seed)
            (tr.unreachable = unreachable);
        traced_s := !traced_s +. wall_s;
        mirrored_s := !mirrored_s +. m.wall_s)
      (spawn t ~label:"mirror" ~seed
         (Workloads.with_domains 1 w.sequential_args @ [ "--metrics-out"; prom ]))
  done;
  if tr.session > 0 then begin
    record t "bench.trace_overhead_ratio" ((!traced_s /. !mirrored_s) -. 1.0);
    List.iter
      (fun (name, v) -> record t name v)
      (Traced.metrics tr @ Traced.replay tr ~seed:t.settings.seed);
    Traced.write_spans ~path:(path t "spans.jsonl") tr
  end
