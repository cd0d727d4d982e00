module Q = Bib.Bib_query
module Index = Bib.Bib_index

type session = { arrived : float; mutable walk : Walk.state }

type ev = Arrival of int | Resume of session

(* A probe whose response is still travelling: any identical probe that
   starts before [completes_at] can ride it. *)
type probe_entry = { answer : Index.step; completes_at : float }

let run ?events ?tracer ?phases ?(concurrency = 1) ?(coalesce = false) cfg =
  if concurrency = 1 then
    (* At concurrency 1 the sequential runner is the engine: sessions run
       to completion one after another, and no engine metric family is
       registered. *)
    Runner.run ?events ?tracer ?phases cfg
  else begin
    let env =
      Obs.Phase.span_opt phases "setup" (fun () ->
          Runner.Internal.setup ?events ?tracer ?phases cfg)
    in
    let cfg = Runner.Internal.config env in
    let registry = Runner.Internal.registry env in
    let rpc = Runner.Internal.rpc env in
    let index = Runner.Internal.index env in
    let clock_ref = Runner.Internal.clock_ref env in
    let ctx = Runner.Internal.walk_ctx env in
    let tracer = Runner.Internal.tracer env in
    (* Arrivals are paced exactly as the sequential runner paces churned
       runs: session i at [i / query_rate].  Static configs take the
       churned default so offered load is still well-defined. *)
    let query_rate =
      match cfg.Runner.churn with
      | Some c -> c.Runner.query_rate
      | None -> Runner.default_churn.Runner.query_rate
    in
    let coalesced_total =
      Obs.Metrics.counter registry
        ~help:"Lookup probes that rode an identical in-flight probe's response"
        "p2pindex_engine_coalesced_total"
    in
    let in_flight_gauge =
      Obs.Metrics.gauge registry ~help:"Sessions currently in flight"
        "p2pindex_engine_in_flight"
    in
    let waiting_gauge =
      Obs.Metrics.gauge registry
        ~help:"Arrived sessions waiting for a concurrency slot"
        "p2pindex_engine_wait_queue"
    in
    let tally = Runner.Internal.tally_create () in
    let queue : ev Stdx.Event_queue.t = Stdx.Event_queue.create ~dummy:(Arrival 0) () in
    let waitq : session Queue.t = Queue.create () in
    let in_flight = ref 0 in
    let inflight_probes : (string, probe_entry) Hashtbl.t = Hashtbl.create 256 in
    (* Singleflight: identical probes to the same responsible node (the
       node is a function of the query string) are deduplicated while one
       is in flight.  The follower pays only a consultation ticket —
       billed as cache traffic, so normal traffic strictly drops — and
       resumes when the leader's response lands.  It skips the index
       layer entirely, so it records no lookup-step metrics or spans of
       its own.  Expired entries are dropped lazily by the window check
       and overwritten in place. *)
    let[@hot] lookup =
      if not coalesce then Index.lookup_step_rendered index
      else fun ~rendered:qs q ->
        match Hashtbl.find_opt inflight_probes qs with
        | Some e when e.completes_at > !clock_ref ->
            Obs.Metrics.Counter.incr coalesced_total;
            Dht.Rpc.send_oneway rpc
              ~dst:(Index.node_of_query index q)
              ~bytes:(P2pindex.Wire.consult_bytes qs)
              ~category:Dht.Network.Cache_update
              ~deliver:(fun () -> true);
            clock_ref := e.completes_at;
            e.answer
        | Some _ | None ->
            let answer = Index.lookup_step index q in
            Hashtbl.replace inflight_probes qs
              (* lint: allow P3 — coalescing window bookkeeping: one entry per distinct in-flight probe, not per event *)
              { answer; completes_at = !clock_ref };
            answer
    in
    let[@hot] admit s ~time =
      incr in_flight;
      Obs.Metrics.Gauge.set in_flight_gauge (float_of_int !in_flight);
      Stdx.Event_queue.push queue ~time (Resume s)
    in
    let[@hot] arrival i ~time =
      if i < cfg.Runner.query_count then
        Stdx.Event_queue.push queue
          ~time:(float_of_int (i + 1) /. query_rate)
          (Arrival (i + 1));
      let event = Runner.Internal.next_event env in
      (* lint: allow P3 — one session record per arriving query, not per quantum; the arrival stamp must ride with the walk *)
      let s = { arrived = time; walk = Walk.start event } in
      if !in_flight < concurrency then admit s ~time
      else begin
        Queue.add s waitq;
        Obs.Metrics.Gauge.set waiting_gauge (float_of_int (Queue.length waitq))
      end
    in
    (* One scheduling quantum: at most one cache-hit exchange plus one
       lookup, whose RPC latencies advance the clock in place.  The
       session then yields; whatever it spent decides when it resumes,
       and other sessions run quanta in the gap.  In concurrent mode a
       trace groups spans per quantum (sessions interleave, so
       per-session traces would anyway). *)
    (* The unprofiled branches below call the staged work directly: the
       per-quantum fast path allocates no thunks when --profile-phases is
       off. *)
    let[@hot] quantum s =
      (match tracer with
      | None -> ()
      | Some tr ->
          Obs.Trace.begin_trace tr
            ~root:(Q.to_string s.walk.Walk.event.Workload.Query_gen.query));
      let stepped =
        match phases with
        | None -> Walk.step ctx ~lookup s.walk
        | Some p ->
            (* lint: allow P1 — profiled branch only: Phase.span takes a thunk; opt-in --profile-phases forfeits the fast path *)
            Obs.Phase.span p "walk" (fun () -> Walk.step ctx ~lookup s.walk)
      in
      (match stepped with
      | Walk.Running w ->
          s.walk <- w;
          Stdx.Event_queue.push queue ~time:!clock_ref (Resume s)
      | Walk.Finished outcome ->
          (match phases with
          | None ->
              Walk.install_shortcuts ctx s.walk outcome;
              Runner.Internal.tally_record tally outcome
          | Some p ->
              (* lint: allow P1 — profiled branch only: Phase.span takes a thunk; opt-in --profile-phases forfeits the fast path *)
              Obs.Phase.span p "walk" (fun () ->
                  Walk.install_shortcuts ctx s.walk outcome);
              (* lint: allow P1 — profiled branch only: Phase.span takes a thunk; opt-in --profile-phases forfeits the fast path *)
              Obs.Phase.span p "tally" (fun () ->
                  Runner.Internal.tally_record tally outcome));
          Runner.Internal.tally_latency tally ~latency:(!clock_ref -. s.arrived)
            ~in_flight:!in_flight;
          decr in_flight;
          Obs.Metrics.Gauge.set in_flight_gauge (float_of_int !in_flight);
          (match Queue.take_opt waitq with
          | Some next ->
              Obs.Metrics.Gauge.set waiting_gauge
                (float_of_int (Queue.length waitq));
              admit next ~time:!clock_ref
          | None -> ()));
      match tracer with
      | None -> ()
      | Some tr -> Obs.Trace.end_trace tr
    in
    Stdx.Event_queue.push queue ~time:(1.0 /. query_rate) (Arrival 1);
    (* Popped times never decrease (every push is at or after the popped
       time), so churn and outbox delivery advance monotonically.  The
       clock itself can dip back between quanta — an executing quantum
       advances it past the next event's start — by at most one RPC's
       latency; deterministic, and harmless to the soft-state reads that
       observe it. *)
    let[@hot] handle ~time ev =
      Runner.Internal.advance_churn env ~until:time;
      clock_ref := time;
      ignore (Dht.Rpc.deliver_until rpc ~now:time : int);
      match ev with Arrival i -> arrival i ~time | Resume s -> quantum s
    in
    (* The queue drains in per-tick quanta: one [drain_until] call sweeps
       every event inside the current tick (including events those events
       push), so at high concurrency the heap is walked in batches of the
       arrival period instead of one pop-allocated pair per event.  The
       global (time, seq) pop order is untouched — ticks only partition
       it — so reports are byte-identical to the one-at-a-time drain. *)
    let tick = 1.0 /. query_rate in
    let horizon = ref tick in
    let rec drain () =
      ignore (Stdx.Event_queue.drain_until queue ~until:!horizon ~f:handle : int);
      match Stdx.Event_queue.peek_time queue with
      | None -> ()
      | Some next ->
          horizon := Float.max (!horizon +. tick) next;
          drain ()
    in
    drain ();
    ignore (Dht.Rpc.flush_deliveries rpc : int);
    Obs.Phase.span_opt phases "report" (fun () -> Runner.Internal.make_report env tally)
  end
