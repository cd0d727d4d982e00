(* The traced lane: [Sim.Runner.run]'s loop replayed from outside the
   library, through the runner's public seams ([Sim.Runner.Internal],
   [Sim.Walk]), with a span around every call into a layer.

   The replay makes the same calls in the same order as [Runner.run], so
   its final metrics snapshot must equal the one the [simulate] command
   writes with [--metrics-out]; the caller checks exactly that.  Spans
   stay in memory: the full tree of the first [kept_sessions] sessions,
   and per-layer totals over every session.  A layer's self time is its
   span's duration minus the time of its child spans (only [walk.step]
   has children: the index lookups it makes). *)

module Internal = Sim.Runner.Internal
module Index = Bib.Bib_index

let kept_sessions = 1_000
let probe_cap = 20_000
let now_ns () = Int64.to_float (Monotonic_clock.now ())

type layer = { mutable calls : int; mutable ns : float; mutable words : float }

type layers = {
  setup : layer;
  advance : layer;
  deliver : layer;
  next_event : layer;
  step : layer;
  lookup : layer;
  install : layer;
  tally : layer;
  report : layer;
}

type span = {
  session : int;
  id : int;  (** 0 is the session's root span. *)
  parent : int;  (** -1 for a root span. *)
  name : string;
  start_ns : float;  (** Since the trace was created. *)
  dur_ns : float;
  minor_words : float;
}

type t = {
  layers : layers;
  origin : float;
  mutable spans : span list;  (** Newest first. *)
  mutable runs : int;
  mutable session : int;  (** Sessions begun, over every run and shard. *)
  mutable next_id : int;
  mutable current_step : int;
  session_us : float array;
  mutable useful : int;  (** Lookups answered with a file or children. *)
  mutable unreachable : int;
  mutable probes : string list;  (** Rendered probe queries, newest first. *)
  mutable probe_count : int;
}

let layer () = { calls = 0; ns = 0.0; words = 0.0 }

let add layer ~ns ~words =
  layer.calls <- layer.calls + 1;
  layer.ns <- layer.ns +. ns;
  layer.words <- layer.words +. words

let keep t = t.session < kept_sessions

let push_span t ~id ~parent name ~start ~dur ~words =
  if keep t then
    t.spans <-
      { session = t.session; id; parent; name; start_ns = start -. t.origin; dur_ns = dur;
        minor_words = words }
      :: t.spans

(* A span around one call into a layer, child of the span [parent]. *)
let timed t layer name ~parent f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let x = f () in
  let dur = now_ns () -. t0 in
  let words = Gc.minor_words () -. w0 in
  add layer ~ns:dur ~words;
  push_span t ~id ~parent name ~start:t0 ~dur ~words;
  x

(* A run-level stage (set-up, report): timed, outside any session. *)
let stage layer f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let x = f () in
  add layer ~ns:(now_ns () -. t0) ~words:(Gc.minor_words () -. w0);
  x

(* One [Runner.run], call for call. *)
let run_config t (cfg : Sim.Runner.config) =
  let l = t.layers in
  let env = stage l.setup (fun () -> Internal.setup cfg) in
  let ctx = Internal.walk_ctx env in
  let index = Internal.index env in
  let rpc = Internal.rpc env in
  let clock = Internal.clock_ref env in
  let tally = Internal.tally_create () in
  let lookup ~rendered q =
    let answer =
      timed t l.lookup "lookup" ~parent:t.current_step (fun () ->
          Index.lookup_step_rendered index ~rendered q)
    in
    (match answer with
    | Index.File _ | Index.Children _ -> t.useful <- t.useful + 1
    | Index.Not_indexed -> ());
    if t.probe_count < probe_cap then begin
      t.probes <- rendered :: t.probes;
      t.probe_count <- t.probe_count + 1
    end;
    answer
  in
  let rec walk s =
    t.current_step <- t.next_id;
    match timed t l.step "walk.step" ~parent:0 (fun () -> Sim.Walk.step ctx ~lookup s) with
    | Sim.Walk.Running s -> walk s
    | Sim.Walk.Finished outcome -> outcome
  in
  for i = 1 to cfg.query_count do
    t.next_id <- 1;
    let w0 = Gc.minor_words () in
    let s0 = now_ns () in
    (* Without active churn the runner has no driver and this call is a
       no-op, as [Runner.run] skips it; timing it anyway keeps the layer's
       cost defined (and near zero) on every workload. *)
    let until =
      match cfg.churn with Some c -> float_of_int i /. c.query_rate | None -> 0.0
    in
    timed t l.advance "advance_churn" ~parent:0 (fun () -> Internal.advance_churn env ~until);
    ignore
      (timed t l.deliver "deliver_until" ~parent:0 (fun () ->
           Dht.Rpc.deliver_until rpc ~now:!clock)
        : int);
    let event = timed t l.next_event "next_event" ~parent:0 (fun () -> Internal.next_event env) in
    let start = Sim.Walk.start event in
    let outcome = walk start in
    timed t l.install "install_shortcuts" ~parent:0 (fun () ->
        Sim.Walk.install_shortcuts ctx start outcome);
    timed t l.tally "tally_record" ~parent:0 (fun () -> Internal.tally_record tally outcome);
    if not outcome.Sim.Walk.found then t.unreachable <- t.unreachable + 1;
    let dur = now_ns () -. s0 in
    t.session_us.(t.session) <- dur /. 1e3;
    push_span t ~id:0 ~parent:(-1) "session" ~start:s0 ~dur ~words:(Gc.minor_words () -. w0);
    t.session <- t.session + 1
  done;
  ignore (Dht.Rpc.flush_deliveries rpc : int);
  stage l.report (fun () -> Internal.make_report env tally)

(* [Sim.Sharded]'s partition, mirrored: shard [s] simulates a block of the
   nodes, articles and sessions under a Weyl-mixed seed (shard 0 keeps the
   caller's), and the shard snapshots merge in shard order. *)
let shard_config (cfg : Sim.Runner.config) ~shards s =
  let split total = (total / shards) + if s < total mod shards then 1 else 0 in
  {
    cfg with
    node_count = split cfg.node_count;
    article_count = split cfg.article_count;
    query_count = split cfg.query_count;
    seed =
      (if s = 0 then cfg.seed
       else Int64.add cfg.seed (Int64.mul (Int64.of_int s) 0x9E3779B97F4A7C15L));
  }

(* A trace with room for [sessions] sessions, over one or more runs. *)
let create ~sessions =
  {
    layers =
      { setup = layer (); advance = layer (); deliver = layer (); next_event = layer ();
        step = layer (); lookup = layer (); install = layer (); tally = layer ();
        report = layer () };
    origin = now_ns ();
    spans = [];
    runs = 0;
    session = 0;
    next_id = 0;
    current_step = 0;
    session_us = Array.make sessions 0.0;
    useful = 0;
    unreachable = 0;
    probes = [];
    probe_count = 0;
  }

(* One run of the workload's sequential command at [seed], traced into
   [t]: its metrics snapshot and wall time in seconds. *)
let run t (w : Workloads.t) ~seed =
  let cfg = w.config seed in
  t.runs <- t.runs + 1;
  let t0 = now_ns () in
  let snapshot =
    if w.shards = 1 then (run_config t cfg).Sim.Runner.metrics
    else
      Obs.Metrics.merge_snapshots
        (List.init w.shards (fun s ->
             (run_config t (shard_config cfg ~shards:w.shards s)).Sim.Runner.metrics))
  in
  (snapshot, (now_ns () -. t0) /. 1e9)

let per num den = if den = 0 then 0.0 else num /. float_of_int den

(* The per-layer metrics over every traced run. *)
let metrics t =
  let l = t.layers in
  let sessions = t.session in
  let pct p = Stdx.Stats.percentile (Array.sub t.session_us 0 sessions) p in
  [
    ("sim.runner.setup_s", per (l.setup.ns /. 1e9) t.runs);
    ("sim.runner.setup_minor_words", per l.setup.words t.runs);
    ("workload.query_gen.next_event_ns", per l.next_event.ns l.next_event.calls);
    ("churn.driver.advance_ns_per_session", per l.advance.ns sessions);
    ("churn.driver.advance_minor_words_per_session", per l.advance.words sessions);
    ("dht.rpc.deliver_until_ns_per_session", per l.deliver.ns sessions);
    ("sim.walk.step_self_ns", per (l.step.ns -. l.lookup.ns) l.step.calls);
    ("sim.walk.step_self_minor_words", per (l.step.words -. l.lookup.words) l.step.calls);
    ("sim.walk.steps_per_session", per (float_of_int l.step.calls) sessions);
    ("p2pindex.index.lookup_step_ns", per l.lookup.ns l.lookup.calls);
    ("p2pindex.index.lookup_step_minor_words", per l.lookup.words l.lookup.calls);
    ("p2pindex.index.lookup_step_calls_per_session", per (float_of_int l.lookup.calls) sessions);
    ("p2pindex.index.lookup_useful_ratio", per (float_of_int t.useful) l.lookup.calls);
    ("cache.shortcut_cache.install_ns_per_session", per l.install.ns sessions);
    ("sim.runner.tally_ns", per l.tally.ns l.tally.calls);
    ("sim.runner.report_s", per (l.report.ns /. 1e9) t.runs);
    ("sim.runner.unreachable_ratio", per (float_of_int t.unreachable) sessions);
    ("sim.session_wall_us.p50", pct 50.0);
    ("sim.session_wall_us.p99", pct 99.0);
    ("sim.session_wall_us.p999", pct 99.9);
    ("sim.session_wall_us.n", float_of_int sessions);
  ]

let write_spans ~path t =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun (s : span) ->
          Out_channel.output_string oc
            (Obs.Json.to_string
               (Obs.Json.Obj
                  [
                    ("session", Obs.Json.Int s.session);
                    ("span", Obs.Json.Int s.id);
                    ("parent", Obs.Json.Int s.parent);
                    ("name", Obs.Json.String s.name);
                    ("start_ns", Obs.Json.Float s.start_ns);
                    ("dur_ns", Obs.Json.Float s.dur_ns);
                    ("minor_words", Obs.Json.Float s.minor_words);
                  ]));
          Out_channel.output_char oc '\n')
        (List.rev t.spans))

(* Substrate replay: the traced runs' first probe keys through
   [Dht.Resolver.responsible] on a fresh 500-node network of each
   substrate.  Kademlia's resolver sorts every live key per call, so it
   replays a tenth of the keys. *)
let substrates =
  [
    ("static", probe_cap, fun seed ->
        Dht.Static_dht.resolver (Dht.Static_dht.create ~seed ~node_count:500 ()));
    ("chord", probe_cap, fun seed ->
        Dht.Chord.resolver (Dht.Chord.create_network ~seed ~node_count:500 ()));
    ("pastry", probe_cap, fun seed ->
        Dht.Pastry.resolver (Dht.Pastry.create_network ~seed ~node_count:500 ()));
    ("can", probe_cap, fun seed ->
        Dht.Can.resolver (Dht.Can.create_network ~seed ~node_count:500 ()));
    ("kademlia", probe_cap / 10, fun seed ->
        Dht.Kademlia.resolver (Dht.Kademlia.create_network ~seed ~node_count:500 ()));
  ]

let replay t ~seed =
  let keys = Array.of_list (List.rev_map Hashing.Key.of_string t.probes) in
  List.concat_map
    (fun (name, cap, build) ->
      let resolver = build seed in
      let n = Stdlib.min cap (Array.length keys) in
      let w0 = Gc.minor_words () in
      let t0 = now_ns () in
      for i = 0 to n - 1 do
        ignore (Sys.opaque_identity (Dht.Resolver.responsible resolver keys.(i)))
      done;
      let ns = now_ns () -. t0 in
      let words = Gc.minor_words () -. w0 in
      [
        (Printf.sprintf "dht.%s.responsible_ns" name, per ns n);
        (Printf.sprintf "dht.%s.responsible_minor_words" name, per words n);
      ])
    substrates
