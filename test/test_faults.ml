(* The fault layer's contract: verdicts are a pure function of the plan
   seed (bit-reproducible runs), the zero plan degenerates the RPC stack
   to the exact historical billing, duplicates are idempotent at the
   index, and retries/hedging buy back success under loss. *)

module Plan = Faults.Plan
module Rpc = Dht.Rpc
module Network = Dht.Network

(* ------------------------------------------------------------------ *)
(* Plan: determinism, rates, resolution, validation. *)

let verdict_stream ~seed ~spec n =
  let plan = Plan.create ~seed spec in
  List.init n (fun i ->
      let src = (i mod 7) - 1 and dst = i mod 5 in
      Plan.message plan ~src ~dst)

let plan_seed_determinism () =
  let spec =
    Plan.spec ~loss_rate:0.3 ~duplicate_rate:0.2
      ~latency:(Plan.Exponential { mean = 0.05 })
      ()
  in
  let a = verdict_stream ~seed:11L ~spec 500 in
  let b = verdict_stream ~seed:11L ~spec 500 in
  let c = verdict_stream ~seed:12L ~spec 500 in
  List.iter2
    (fun (x : Plan.verdict) (y : Plan.verdict) ->
      Alcotest.(check bool) "same lost" x.lost y.lost;
      Alcotest.(check bool) "same duplicated" x.duplicated y.duplicated;
      Alcotest.(check (float 0.0)) "same latency" x.latency y.latency)
    a b;
  Alcotest.(check bool) "different seed, different stream" true
    (List.exists2
       (fun (x : Plan.verdict) (y : Plan.verdict) ->
         x.lost <> y.lost || x.duplicated <> y.duplicated
         || x.latency <> y.latency)
       a c)

let plan_rates_respected () =
  let n = 2_000 in
  let count spec pick =
    let vs = verdict_stream ~seed:5L ~spec n in
    List.length (List.filter pick vs)
  in
  Alcotest.(check int) "loss 0 never drops"
    0
    (count (Plan.spec ()) (fun (v : Plan.verdict) -> v.lost));
  Alcotest.(check int) "loss 1 always drops" n
    (count (Plan.spec ~loss_rate:1.0 ()) (fun (v : Plan.verdict) -> v.lost));
  let lost =
    count (Plan.spec ~loss_rate:0.3 ()) (fun (v : Plan.verdict) -> v.lost)
  in
  let rate = float_of_int lost /. float_of_int n in
  if rate < 0.25 || rate > 0.35 then
    Alcotest.failf "empirical loss rate %.3f far from 0.3" rate

let plan_latency_distributions () =
  let stream latency =
    verdict_stream ~seed:3L ~spec:(Plan.spec ~latency ()) 500
  in
  List.iter
    (fun (v : Plan.verdict) ->
      Alcotest.(check (float 0.0)) "constant latency" 0.125 v.latency)
    (stream (Plan.Constant 0.125));
  let exp_stream = stream (Plan.Exponential { mean = 0.05 }) in
  List.iter
    (fun (v : Plan.verdict) ->
      if v.latency < 0.0 then Alcotest.failf "negative latency %g" v.latency)
    exp_stream;
  let mean =
    List.fold_left (fun acc (v : Plan.verdict) -> acc +. v.latency) 0.0 exp_stream
    /. 500.0
  in
  if mean < 0.03 || mean > 0.07 then
    Alcotest.failf "exponential mean %.4f far from 0.05" mean

let plan_override_resolution () =
  (* Link beats node; destination node beats source node; others get the
     base spec. *)
  let plan =
    Plan.create ~seed:1L
      ~node_overrides:
        [ (3, Plan.spec ~loss_rate:1.0 ()); (4, Plan.spec ()) ]
      ~link_overrides:[ ((4, 3), Plan.spec ()) ]
      (Plan.spec ())
  in
  Alcotest.(check bool) "base spec clean" false
    (Plan.message plan ~src:0 ~dst:1).lost;
  Alcotest.(check bool) "dst override drops" true
    (Plan.message plan ~src:0 ~dst:3).lost;
  Alcotest.(check bool) "src override drops" true
    (Plan.message plan ~src:3 ~dst:1).lost;
  Alcotest.(check bool) "dst beats src" false
    (Plan.message plan ~src:3 ~dst:4).lost;
  Alcotest.(check bool) "link beats node" false
    (Plan.message plan ~src:4 ~dst:3).lost

let plan_zero_and_validation () =
  Alcotest.(check bool) "zero plan is zero" true (Plan.is_zero Plan.zero);
  Alcotest.(check bool) "zero-valued spec is zero" true
    (Plan.is_zero (Plan.create (Plan.spec ~latency:(Plan.Constant 0.0) ())));
  Alcotest.(check bool) "lossy plan is not zero" false
    (Plan.is_zero (Plan.create (Plan.spec ~loss_rate:0.1 ())));
  let v = Plan.message Plan.zero ~src:(-1) ~dst:0 in
  Alcotest.(check bool) "zero verdict clean" true
    ((not v.lost) && (not v.duplicated) && v.latency = 0.0);
  let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "loss rate > 1 rejected" true
    (rejects (fun () -> Plan.spec ~loss_rate:1.5 ()));
  Alcotest.(check bool) "negative duplicate rate rejected" true
    (rejects (fun () -> Plan.spec ~duplicate_rate:(-0.1) ()));
  Alcotest.(check bool) "negative exponential mean rejected" true
    (rejects (fun () -> Plan.spec ~latency:(Plan.Exponential { mean = -0.1 }) ()))

(* ------------------------------------------------------------------ *)
(* Delayed one-way deliveries (the RPC channel's outbox): time order,
   FIFO ties, counts, flush. *)

let outbox_orders_deliveries () =
  (* A constant 1 s latency: a one-way sent at [now] arrives at
     [now + 1]; a duplicated copy arrives with it. *)
  let now = ref 0.0 in
  let clock = { Rpc.now = (fun () -> !now); advance = (fun dt -> now := !now +. dt) } in
  let channel spec =
    Rpc.create ~clock ~plan:(Plan.create ~seed:1L (spec ~latency:(Plan.Constant 1.0))) ()
  in
  let rpc = channel (fun ~latency -> Plan.spec ~latency ()) in
  let log = ref [] in
  let post ?(rpc = rpc) time tag =
    now := time;
    Rpc.send_lossy rpc ~dst:0 ~bytes:1
      ~deliver:(fun () -> log := tag :: !log; true)
  in
  post 2.0 "c";
  post 0.0 "a";
  post 1.0 "b1";
  post 1.0 "b2";
  post 8.0 "z";
  Alcotest.(check int) "pending" 5 (Rpc.pending_deliveries rpc);
  Alcotest.(check int) "due by 2.5" 3 (Rpc.deliver_until rpc ~now:2.5);
  Alcotest.(check (list string)) "time order, FIFO ties"
    [ "a"; "b1"; "b2" ] (List.rev !log);
  Alcotest.(check int) "flush delivers the rest" 2 (Rpc.flush_deliveries rpc);
  Alcotest.(check (list string)) "flush order" [ "a"; "b1"; "b2"; "c"; "z" ]
    (List.rev !log);
  Alcotest.(check int) "nothing pending" 0 (Rpc.pending_deliveries rpc);
  (* A duplicated one-way posts both copies at one arrival time. *)
  let duped = channel (fun ~latency -> Plan.spec ~duplicate_rate:1.0 ~latency ()) in
  post ~rpc:duped 0.0 "d";
  Alcotest.(check int) "both copies delivered" 2 (Rpc.deliver_until duped ~now:1.0);
  Alcotest.(check bool) "NaN arrival time rejected" true
    (try post Float.nan "nan"; false with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* RPC: zero-fault byte identity, retries, hedging, one-ways. *)

let exchange ~net ~rpc ~dst ~request_bytes ~response_bytes =
  (* The reference accounting the pre-RPC code performed for one
     successful exchange, and the RPC-layer equivalent. *)
  ignore net;
  Rpc.call rpc ~dst ~request_bytes
    ~handler:(fun ~node:_ -> Rpc.Reply { bytes = response_bytes; value = () })
    ()

let rpc_zero_fault_byte_identity () =
  let direct = Network.create ~node_count:8 () in
  let routed = Network.create ~node_count:8 () in
  let rpc = Rpc.create ~network:routed () in
  for i = 0 to 99 do
    let dst = i mod 8 in
    let request_bytes = 40 + i and response_bytes = 200 + i in
    Network.send direct ~dst ~bytes:request_bytes ~category:Network.Request;
    Network.touch direct ~node:dst;
    Network.send direct ~dst ~bytes:response_bytes ~category:Network.Response;
    match exchange ~net:routed ~rpc ~dst ~request_bytes ~response_bytes with
    | Rpc.Answered { node; _ } -> Alcotest.(check int) "answered by dst" dst node
    | Rpc.Exhausted -> Alcotest.fail "zero plan must answer"
  done;
  (* A dead node historically cost one unanswered request and no touch. *)
  Network.send direct ~dst:5 ~bytes:77 ~category:Network.Request;
  (match
     Rpc.call rpc ~dst:5 ~request_bytes:77 ~handler:(fun ~node:_ -> Rpc.No_response) ()
   with
  | Rpc.Exhausted -> ()
  | Rpc.Answered _ -> Alcotest.fail "No_response must exhaust");
  List.iter
    (fun cat ->
      Alcotest.(check int)
        ("bytes " ^ Network.category_label cat)
        (Network.bytes direct cat) (Network.bytes routed cat);
      Alcotest.(check int)
        ("messages " ^ Network.category_label cat)
        (Network.messages direct cat)
        (Network.messages routed cat))
    [ Network.Request; Network.Response; Network.Cache_update; Network.Maintenance ];
  Alcotest.(check (array int)) "touches" (Network.touches direct)
    (Network.touches routed);
  Alcotest.(check (float 0.0)) "clock untouched" 0.0 (Rpc.now rpc)

let rpc_config ?(timeout = 0.5) ?(retries = 2) ?(hedge = false) () =
  { Rpc.timeout; retries; hedge }

let rpc_retries_then_exhausts () =
  let metrics = Obs.Metrics.create () in
  let plan = Plan.create ~seed:9L (Plan.spec ~loss_rate:1.0 ()) in
  let handled = ref 0 in
  let rpc = Rpc.create ~metrics ~plan ~config:(rpc_config ~retries:2 ()) () in
  (match
     Rpc.call rpc ~dst:0 ~request_bytes:10
       ~handler:(fun ~node:_ -> incr handled; Rpc.Reply { bytes = 10; value = () })
       ()
   with
  | Rpc.Exhausted -> ()
  | Rpc.Answered _ -> Alcotest.fail "total loss must exhaust");
  Alcotest.(check int) "lost requests never reach the handler" 0 !handled;
  let total name = Obs.Metrics.counter_total (Obs.Metrics.snapshot metrics) name in
  Alcotest.(check int) "three attempts time out" 3
    (total "p2pindex_rpc_timeouts_total");
  Alcotest.(check int) "two retries" 2 (total "p2pindex_rpc_retries_total");
  Alcotest.(check int) "one exhaustion" 1 (total "p2pindex_rpc_exhausted_total");
  (* 3 timeouts plus 2 backoff pauses: at least 3 * timeout. *)
  Alcotest.(check bool) "clock advanced past the timeouts" true
    (Rpc.now rpc >= 3.0 *. 0.5)

let rpc_hedge_wins () =
  let metrics = Obs.Metrics.create () in
  (* The primary replica's messages always vanish; the hedge target is
     clean, so the hedged second request wins every call. *)
  let plan =
    Plan.create ~seed:4L
      ~node_overrides:[ (0, Plan.spec ~loss_rate:1.0 ()) ]
      (Plan.spec ())
  in
  let rpc =
    Rpc.create ~metrics ~plan ~config:(rpc_config ~retries:0 ~hedge:true ()) ()
  in
  (match
     Rpc.call rpc ~dst:0 ~hedge_dst:1 ~request_bytes:10
       ~handler:(fun ~node -> Rpc.Reply { bytes = 10; value = node })
       ()
   with
  | Rpc.Answered { value; node } ->
      Alcotest.(check int) "hedge target answered" 1 node;
      Alcotest.(check int) "handler saw the hedge target" 1 value
  | Rpc.Exhausted -> Alcotest.fail "hedge should have answered");
  let total name = Obs.Metrics.counter_total (Obs.Metrics.snapshot metrics) name in
  Alcotest.(check int) "hedge fired" 1 (total "p2pindex_rpc_hedges_total");
  Alcotest.(check int) "hedge won" 1 (total "p2pindex_rpc_hedges_won_total")

(* The hedge fires at half the timeout, whatever the timeout: at 2 s it
   waits 1 s.  A 0.8 s round trip answers first; a 1.2 s one lets the
   hedge fire, and the primary still wins, since the hedge's answer would
   land at 1 + 1.2 s, past the deadline. *)
let rpc_hedge_delay_is_half_the_timeout () =
  List.iter
    (fun (latency, hedges) ->
      let metrics = Obs.Metrics.create () in
      let plan = Plan.create ~seed:4L (Plan.spec ~latency:(Plan.Constant latency) ()) in
      let rpc =
        Rpc.create ~metrics ~plan ~config:(rpc_config ~timeout:2.0 ~retries:0 ~hedge:true ()) ()
      in
      let label what = Printf.sprintf "%s at %g s per direction" what latency in
      (match
         Rpc.call rpc ~dst:0 ~hedge_dst:1 ~request_bytes:10
           ~handler:(fun ~node -> Rpc.Reply { bytes = 10; value = node })
           ()
       with
      | Rpc.Answered { node; _ } -> Alcotest.(check int) (label "primary answered") 0 node
      | Rpc.Exhausted -> Alcotest.fail (label "the primary should have answered"));
      let total name = Obs.Metrics.counter_total (Obs.Metrics.snapshot metrics) name in
      Alcotest.(check int) (label "hedges") hedges (total "p2pindex_rpc_hedges_total");
      Alcotest.(check int) (label "hedges won") 0 (total "p2pindex_rpc_hedges_won_total"))
    [ (0.4, 0); (0.6, 1) ]

let rpc_lossy_oneway () =
  let net = Network.create ~node_count:4 () in
  let plan =
    Plan.create ~seed:2L (Plan.spec ~latency:(Plan.Constant 5.0) ())
  in
  let rpc = Rpc.create ~network:net ~plan () in
  let applied = ref 0 in
  Rpc.send_lossy rpc ~dst:2 ~bytes:30
    ~deliver:(fun () -> incr applied; true);
  Alcotest.(check int) "billed at send time" 30
    (Network.bytes net Network.Cache_update);
  Alcotest.(check int) "delayed, not applied yet" 0 !applied;
  Alcotest.(check int) "pending" 1 (Rpc.pending_deliveries rpc);
  Alcotest.(check int) "not due yet" 0 (Rpc.deliver_until rpc ~now:4.9);
  Alcotest.(check int) "due at latency" 1 (Rpc.deliver_until rpc ~now:5.0);
  Alcotest.(check int) "applied on arrival" 1 !applied;
  (* Total loss: billed, never applied. *)
  let dropped = Rpc.create ~network:net ~plan:(Plan.create ~seed:2L (Plan.spec ~loss_rate:1.0 ())) () in
  Rpc.send_lossy dropped ~dst:2 ~bytes:30
    ~deliver:(fun () -> incr applied; true);
  Alcotest.(check int) "lost one-way still billed" 60
    (Network.bytes net Network.Cache_update);
  Alcotest.(check int) "lost one-way never applied" 1 !applied;
  Alcotest.(check int) "nothing pending" 0 (Rpc.pending_deliveries dropped)

(* ------------------------------------------------------------------ *)
(* Duplicate idempotence at the index: a plan that duplicates every
   message must not change any lookup answer — handlers run twice, the
   duplicate reply is suppressed. *)

let index_duplicate_idempotence () =
  let articles =
    Bib.Corpus.generate ~seed:7L (Bib.Corpus.default_config ~article_count:120)
  in
  let build ~plan =
    let resolver =
      Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:7L ~node_count:16 ())
    in
    let rpc = Rpc.create ~plan ~resolver () in
    let index = Bib.Bib_index.create ~rpc ~resolver () in
    Bib.Bib_index.publish_corpus index ~kind:Bib.Schemes.Simple articles;
    index
  in
  let clean = build ~plan:Plan.zero in
  let duplicating =
    build ~plan:(Plan.create ~seed:77L (Plan.spec ~duplicate_rate:1.0 ()))
  in
  Array.iteri
    (fun i article ->
      if i < 40 then begin
        let msd = Bib.Bib_query.msd article in
        let queries = msd :: Bib.Bib_query.generalizations msd in
        List.iter (fun q ->
        let show = function
          | Bib.Bib_index.File file -> "file " ^ file.Storage.Block_store.name
          | Bib.Bib_index.Children children ->
              "children "
              ^ String.concat "," (List.map Bib.Bib_query.to_string children)
          | Bib.Bib_index.Not_indexed -> "not-indexed"
        in
        Alcotest.(check string)
          ("lookup " ^ Bib.Bib_query.to_string q)
          (show (Bib.Bib_index.lookup_step clean q))
          (show (Bib.Bib_index.lookup_step duplicating q)))
          queries
      end)
    articles

(* ------------------------------------------------------------------ *)
(* The hedged replica walk: replication 3, hedging on, no retries, and a
   plan that loses every message to the key's primary, so the first
   call's hedge to the second replica answers. *)

let hedged_walk ?read_quorum ~indexed () =
  let node_count = 16 in
  let resolver =
    Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:7L ~node_count ())
  in
  let author = { Bib.Article.first = "Grace"; last = "Hopper" } in
  let msd =
    Bib.Bib_query.msd
      (Bib.Article.make ~id:1 ~authors:[ author ] ~title:"Compilers" ~conf:"ACM"
         ~year:1952 ~size_bytes:1000)
  in
  let replicas = Dht.Resolver.replicas resolver (Bib.Bib_index.key_of_query msd) 3 in
  let plan =
    Plan.create ~seed:4L
      ~node_overrides:[ (List.hd replicas, Plan.spec ~loss_rate:1.0 ()) ]
      (Plan.spec ())
  in
  let network = Network.create ~node_count () in
  let metrics = Obs.Metrics.create () in
  let rpc =
    Rpc.create ~network ~metrics ~plan
      ~config:(rpc_config ~retries:0 ~hedge:true ())
      ()
  in
  let index = Bib.Bib_index.create ~rpc ~resolver ~replication:3 ?read_quorum () in
  if indexed then
    Bib.Bib_index.store_file index ~msd { Storage.Block_store.name = "a1"; size_bytes = 1000 };
  let before = Array.copy (Network.touches network) in
  let step = Bib.Bib_index.lookup_step index msd in
  let after = Network.touches network in
  let answered = List.map (fun node -> after.(node) - before.(node)) replicas in
  let calls =
    Obs.Metrics.counter_total (Obs.Metrics.snapshot metrics) "p2pindex_rpc_calls_total"
  in
  (step, answered, calls)

(* Without quorum the walk stops at the first non-empty answer, so an
   empty hedge target is asked again when its turn comes. *)
let hedged_walk_reasks_empty_target () =
  let step, answered, calls = hedged_walk ~indexed:false () in
  Alcotest.(check bool) "not indexed" true (step = Bib.Bib_index.Not_indexed);
  Alcotest.(check (list int)) "answers per replica" [ 0; 2; 1 ] answered;
  Alcotest.(check int) "one call per replica" 3 calls

(* Under quorum a hedge target that answered non-empty is skipped: it
   counts toward R once, and R = 2 needs the third replica. *)
let hedged_quorum_walk_counts_replica_once () =
  let step, answered, calls = hedged_walk ~read_quorum:2 ~indexed:true () in
  Alcotest.(check bool) "file found" true
    (match step with Bib.Bib_index.File _ -> true | _ -> false);
  Alcotest.(check (list int)) "answers per replica" [ 0; 1; 1 ] answered;
  Alcotest.(check int) "the won hedge's replica is not called" 2 calls

(* ------------------------------------------------------------------ *)
(* Runner degeneration and recovery. *)

(* The hard degeneration claim: an inactive fault block (all rates zero,
   no hedging) must reproduce the plain run byte for byte — traffic,
   placement, cache behaviour and the metrics snapshot. *)
let faults_zero_equals_plain () =
  let base =
    {
      Sim.Runner.default_config with
      node_count = 50;
      article_count = 500;
      query_count = 1_000;
      scheme = Bib.Schemes.Simple;
      policy = Cache.Policy.lru 10;
    }
  in
  let plain = Sim.Runner.run base in
  let faulted =
    Sim.Runner.run { base with faults = Some Sim.Runner.default_faults }
  in
  Alcotest.(check bool) "default fault block is inactive" false
    (Sim.Runner.fault_active { base with faults = Some Sim.Runner.default_faults });
  let check_int what f =
    Alcotest.(check int) what (f plain) (f faulted)
  in
  let open Sim.Runner in
  check_int "request bytes" request_bytes;
  check_int "response bytes" response_bytes;
  check_int "cache bytes" cache_bytes;
  check_int "maintenance bytes" maintenance_bytes;
  check_int "publish bytes" (fun r -> r.publish_bytes);
  check_int "network messages" network_messages;
  check_int "hits" (fun r -> r.hits);
  check_int "errors" (fun r -> r.errors);
  check_int "unreachable" (fun r -> r.unreachable);
  check_int "rpc calls" rpc_calls;
  Alcotest.(check (array int)) "per-node touches" plain.node_touches
    faulted.node_touches;
  Alcotest.(check (array int)) "per-node cached keys" plain.cached_keys
    faulted.cached_keys;
  Alcotest.(check string) "metrics snapshot byte-identical"
    (Obs.Export.render_table plain.metrics)
    (Obs.Export.render_table faulted.metrics)

let faults_degrade_and_recover () =
  let base =
    {
      Sim.Runner.default_config with
      node_count = 50;
      article_count = 400;
      query_count = 800;
    }
  in
  let run ~retries ~hedge =
    Sim.Runner.run
      {
        base with
        faults =
          Some
            {
              Sim.Runner.default_faults with
              loss_rate = 0.25;
              rpc_retries = retries;
              hedge;
              fault_replication = 3;
            };
      }
  in
  let fragile = run ~retries:0 ~hedge:false in
  let hardened = run ~retries:2 ~hedge:true in
  Alcotest.(check bool) "loss without retries fails lookups" true
    (Sim.Runner.lookup_success_rate fragile < 0.8);
  Alcotest.(check bool) "retries + hedging recover success" true
    (Sim.Runner.lookup_success_rate hardened > 0.95);
  Alcotest.(check bool) "timeouts counted" true (Sim.Runner.rpc_timeouts hardened > 0);
  Alcotest.(check bool) "retries counted" true (Sim.Runner.rpc_retries hardened > 0);
  Alcotest.(check bool) "hedges counted" true (Sim.Runner.rpc_hedges hardened > 0);
  Alcotest.(check bool) "lost messages counted" true
    (Sim.Runner.rpc_lost_messages hardened > 0);
  (* Seed determinism end to end: the same faulty config replays
     bit-for-bit, metrics snapshot included. *)
  let replay = run ~retries:2 ~hedge:true in
  Alcotest.(check int) "same rpc timeouts" (Sim.Runner.rpc_timeouts hardened)
    (Sim.Runner.rpc_timeouts replay);
  Alcotest.(check string) "faulty run replays byte-identically"
    (Obs.Export.render_table hardened.Sim.Runner.metrics)
    (Obs.Export.render_table replay.Sim.Runner.metrics)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let plan_determinism_property =
  QCheck.Test.make ~name:"plan verdicts are a pure function of the seed" ~count:50
    QCheck.(triple int64 (float_bound_exclusive 1.0) small_nat)
    (fun (seed, loss_rate, n) ->
      let loss_rate = Float.abs loss_rate in
      let spec =
        Plan.spec ~loss_rate ~duplicate_rate:(loss_rate /. 2.0)
          ~latency:(Plan.Exponential { mean = 0.01 })
          ()
      in
      let n = 1 + (n mod 64) in
      verdict_stream ~seed ~spec n = verdict_stream ~seed ~spec n)

let suite =
  [
    ( "faults:plan",
      [
        Alcotest.test_case "seeded verdict streams replay" `Quick
          plan_seed_determinism;
        Alcotest.test_case "loss rates respected" `Quick plan_rates_respected;
        Alcotest.test_case "latency distributions" `Quick plan_latency_distributions;
        Alcotest.test_case "override resolution" `Quick plan_override_resolution;
        Alcotest.test_case "zero plan and validation" `Quick plan_zero_and_validation;
      ]
      @ qcheck [ plan_determinism_property ] );
    ( "faults:outbox",
      [ Alcotest.test_case "time order, FIFO ties, flush" `Quick outbox_orders_deliveries ] );
    ( "dht:rpc",
      [
        Alcotest.test_case "zero plan = historical billing, byte for byte" `Quick
          rpc_zero_fault_byte_identity;
        Alcotest.test_case "total loss retries then exhausts" `Quick
          rpc_retries_then_exhausts;
        Alcotest.test_case "hedged request wins over a dead primary" `Quick
          rpc_hedge_wins;
        Alcotest.test_case "hedge fires at half a 2 s timeout" `Quick
          rpc_hedge_delay_is_half_the_timeout;
        Alcotest.test_case "lossy one-ways: billed, delayed, droppable" `Quick
          rpc_lossy_oneway;
      ] );
    ( "faults:index",
      [
        Alcotest.test_case "duplicate deliveries are idempotent" `Quick
          index_duplicate_idempotence;
        Alcotest.test_case "hedged walk asks an empty hedge target again" `Quick
          hedged_walk_reasks_empty_target;
        Alcotest.test_case "hedged quorum walk counts a replica once" `Quick
          hedged_quorum_walk_counts_replica_once;
      ] );
    ( "faults:runner",
      [
        Alcotest.test_case "inactive faults = plain run, byte for byte" `Quick
          faults_zero_equals_plain;
        Alcotest.test_case "loss degrades, retries + hedging recover" `Quick
          faults_degrade_and_recover;
      ] );
  ]
