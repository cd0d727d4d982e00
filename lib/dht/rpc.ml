module Plan = Faults.Plan

(* The querying client's endpoint in fault-plan terms: not a DHT node,
   so it sits outside the node index space. *)
let client = -1

type config = { timeout : float; retries : int; hedge : bool }

let default_config = { timeout = 0.5; retries = 2; hedge = false }

(* Retry pauses: 0.05 s before the first retry, doubling per further
   retry, each scaled by a uniform factor in [1, 1.5]. *)
let backoff = 0.05
let backoff_factor = 2.0
let jitter = 0.5

let validate_config c =
  if not (Float.is_finite c.timeout && c.timeout > 0.0) then
    invalid_arg "Rpc.create: timeout must be finite and > 0";
  if c.retries < 0 then invalid_arg "Rpc.create: retries must be >= 0"

type clock = { now : unit -> float; advance : float -> unit }

let private_clock () =
  let t = ref 0.0 in
  { now = (fun () -> !t); advance = (fun dt -> t := !t +. dt) }

type 'a reply = Reply of { bytes : int; value : 'a } | No_response

type 'a outcome = Answered of { value : 'a; node : int } | Exhausted

type instruments = {
  calls : Obs.Metrics.Counter.t;
  exhausted : Obs.Metrics.Counter.t;
  attempts : Obs.Metrics.Histogram.t;
  timeouts : Obs.Metrics.Counter.t;
  retries : Obs.Metrics.Counter.t;
  hedges : Obs.Metrics.Counter.t;
  hedges_won : Obs.Metrics.Counter.t;
  duplicates_suppressed : Obs.Metrics.Counter.t;
  lost_requests : Obs.Metrics.Counter.t;
  lost_responses : Obs.Metrics.Counter.t;
  lost_oneway : Obs.Metrics.Counter.t;
  rtt : Obs.Metrics.Histogram.t;
  oneway : Obs.Metrics.Counter.t;
}

let make_instruments registry =
  let counter ?labels help name = Obs.Metrics.counter registry ~help ?labels name in
  let lost direction =
    counter
      ~labels:[ ("direction", direction) ]
      "Messages the fault plan dropped, by direction"
      "p2pindex_rpc_lost_messages_total"
  in
  {
    calls = counter "RPC calls issued" "p2pindex_rpc_calls_total";
    exhausted =
      counter "RPC calls that exhausted every attempt"
        "p2pindex_rpc_exhausted_total";
    attempts =
      Obs.Metrics.histogram registry ~help:"Attempts per RPC call"
        ~buckets:(Obs.Metrics.linear_buckets ~start:1.0 ~step:1.0 ~count:8)
        "p2pindex_rpc_attempts_per_call";
    timeouts = counter "Attempts that timed out" "p2pindex_rpc_timeouts_total";
    retries = counter "Retries issued after a timeout" "p2pindex_rpc_retries_total";
    hedges = counter "Hedged second requests fired" "p2pindex_rpc_hedges_total";
    hedges_won =
      counter "Hedged requests that answered first" "p2pindex_rpc_hedges_won_total";
    duplicates_suppressed =
      counter "Duplicate deliveries discarded by the client"
        "p2pindex_rpc_duplicates_suppressed_total";
    lost_requests = lost "request";
    lost_responses = lost "response";
    lost_oneway = lost "oneway";
    rtt =
      Obs.Metrics.histogram registry
        ~help:"Round-trip time of successful RPC calls (virtual seconds)"
        ~buckets:(Obs.Metrics.exponential_buckets ~start:0.001 ~factor:2.0 ~count:12)
        "p2pindex_rpc_rtt_seconds";
    oneway = counter "One-way messages sent" "p2pindex_rpc_oneway_total";
  }

type t = {
  network : Network.t option;
  plan : Plan.t;
  config : config;
  clock : clock;
  resolver : Resolver.t option;
  charge_route_hops : bool;
  outbox : (unit -> unit) Stdx.Event_queue.t;
      (* delayed one-way deliveries, by (arrival time, posting order) *)
  instruments : instruments option;
}

let create ?network ?metrics ?(plan = Plan.zero) ?(config = default_config)
    ?clock ?resolver ?(charge_route_hops = false) () =
  validate_config config;
  let clock = match clock with Some c -> c | None -> private_clock () in
  {
    network;
    plan;
    config;
    clock;
    resolver;
    charge_route_hops;
    outbox = Stdx.Event_queue.create ~dummy:ignore ();
    instruments = Option.map make_instruments metrics;
  }

let now t = t.clock.now ()

let bump t pick =
  match t.instruments with
  | None -> ()
  | Some ins -> Obs.Metrics.Counter.incr (pick ins)

let observe t pick v =
  match t.instruments with
  | None -> ()
  | Some ins -> Obs.Metrics.Histogram.observe (pick ins) v

(* ------------------------------------------------------------------ *)
(* Billing: the network is an accounting layer, so every copy the
   sender puts on the wire is charged whether or not it arrives. *)

let bill t ~dst ~bytes ~category ~copies =
  match t.network with
  | None -> ()
  | Some net ->
      for _ = 1 to copies do
        Network.send net ~dst ~bytes ~category
      done

(* Exactly the billing the index layer historically performed per
   request: the request itself plus, when route hops are charged,
   (hops - 1) forwarded copies as maintenance. *)
let bill_request t ~dst ~bytes ~copies ~route_key =
  match t.network with
  | None -> ()
  | Some net ->
      for _ = 1 to copies do
        Network.send net ~dst ~bytes ~category:Network.Request
      done;
      if t.charge_route_hops then (
        match route_key with
        | None -> ()
        | Some key -> (
            match t.resolver with
            | None -> ()
            | Some resolver ->
                let hops = Resolver.route_hops resolver key in
                if hops > 1 then
                  Network.send net ~dst ~bytes:((hops - 1) * bytes)
                    ~category:Network.Maintenance))

let touch t ~dst =
  match t.network with None -> () | Some net -> Network.touch net ~node:dst

(* Under a faulty plan each substrate forwarding hop can drop the
   request independently — the overlay path is only as reliable as its
   weakest link. *)
let forwarding_hops_survive t ~dst ~route_key =
  match route_key with
  | Some key when t.charge_route_hops -> (
      match t.resolver with
      | Some resolver ->
          let hops = Resolver.route_hops resolver key in
          let ok = ref true in
          for _ = 2 to hops do
            if not (Plan.hop_survives t.plan ~dst) then ok := false
          done;
          !ok
      | None -> true)
  | Some _ | None -> true

(* ------------------------------------------------------------------ *)
(* One request/response leg.  Returns [Some (rtt, value)] when both
   directions were delivered (the caller checks the deadline), [None]
   when the request or response was lost or the node never answered. *)

let[@hot] exchange t ~dst ~route_key ~request_bytes ~handler =
  let v_req = Plan.message t.plan ~src:client ~dst in
  let req_copies = if v_req.Plan.duplicated then 2 else 1 in
  bill_request t ~dst ~bytes:request_bytes ~copies:req_copies ~route_key;
  let survives = forwarding_hops_survive t ~dst ~route_key in
  if v_req.Plan.lost || not survives then begin
    bump t (fun i -> i.lost_requests);
    None
  end
  else
    match handler ~node:dst with
    | No_response -> None
    | Reply { bytes; value } ->
        touch t ~dst;
        (* A duplicated request reaches the node twice: the handler runs
           again (exercising idempotence) and its extra answer is billed
           and then discarded by the client. *)
        if v_req.Plan.duplicated then begin
          ignore (handler ~node:dst);
          bump t (fun i -> i.duplicates_suppressed)
        end;
        let v_resp = Plan.message t.plan ~src:dst ~dst:client in
        let resp_copies =
          (if v_req.Plan.duplicated then 1 else 0)
          + if v_resp.Plan.duplicated then 2 else 1
        in
        bill t ~dst ~bytes ~category:Network.Response ~copies:resp_copies;
        if v_resp.Plan.duplicated then bump t (fun i -> i.duplicates_suppressed);
        if v_resp.Plan.lost then begin
          bump t (fun i -> i.lost_responses);
          None
        end
        else
          (* lint: allow P3 — API boundary: one (rtt, value) pair per completed exchange, consumed immediately *)
          Some (v_req.Plan.latency +. v_resp.Plan.latency, value)

(* ------------------------------------------------------------------ *)
(* The fault-free fast path: single attempt, no clock movement — the
   exact historical charge sequence (request, hop maintenance, touch,
   response), with a dead node costing only the unanswered request. *)

let[@hot] fast_call t ~dst ~route_key ~request_bytes ~handler =
  bill_request t ~dst ~bytes:request_bytes ~copies:1 ~route_key;
  match handler ~node:dst with
  | No_response ->
      bump t (fun i -> i.exhausted);
      Exhausted
  | Reply { bytes; value } ->
      touch t ~dst;
      bill t ~dst ~bytes ~category:Network.Response ~copies:1;
      observe t (fun i -> i.attempts) 1.0;
      observe t (fun i -> i.rtt) 0.0;
      Answered { value; node = dst }

(* The full cascade.  Elapsed time advances the shared clock in place, so
   mid-cascade advancement is observable: soft-state reads during retries
   see the later time. *)
let call t ~dst ?hedge_dst ?route_key ~request_bytes ~handler () =
  bump t (fun i -> i.calls);
  if Plan.is_zero t.plan then fast_call t ~dst ~route_key ~request_bytes ~handler
  else begin
    let timeout = t.config.timeout in
    let succeed ~attempts ~elapsed ~node value =
      observe t (fun i -> i.attempts) (float_of_int attempts);
      observe t (fun i -> i.rtt) elapsed;
      t.clock.advance elapsed;
      Answered { value; node }
    in
    let rec attempt k =
      let primary = exchange t ~dst ~route_key ~request_bytes ~handler in
      let completion =
        match (k, t.config.hedge, hedge_dst) with
        | 0, true, Some hdst -> (
            (* The hedge fires once the first attempt has run half the
               timeout. *)
            let hedge_delay = timeout /. 2.0 in
            match primary with
            | Some (rtt, v) when rtt <= hedge_delay ->
                (* Answered before the hedge would have fired. *)
                Some (rtt, v, dst)
            | _ ->
                bump t (fun i -> i.hedges);
                let hedge =
                  exchange t ~dst:hdst ~route_key ~request_bytes ~handler
                in
                let pc =
                  match primary with
                  | Some (rtt, v) when rtt <= timeout -> Some (rtt, v, dst)
                  | _ -> None
                in
                let hc =
                  match hedge with
                  | Some (rtt, v) when hedge_delay +. rtt <= timeout ->
                      Some (hedge_delay +. rtt, v, hdst)
                  | _ -> None
                in
                let won c =
                  bump t (fun i -> i.hedges_won);
                  c
                in
                (match (pc, hc) with
                | Some (tp, _, _), Some (th, _, _) ->
                    if tp <= th then pc else won hc
                | Some _, None -> pc
                | None, Some _ -> won hc
                | None, None -> None))
        | _ -> (
            match primary with
            | Some (rtt, v) when rtt <= timeout -> Some (rtt, v, dst)
            | _ -> None)
      in
      match completion with
      | Some (elapsed, v, node) -> succeed ~attempts:(k + 1) ~elapsed ~node v
      | None ->
          bump t (fun i -> i.timeouts);
          t.clock.advance timeout;
          if k < t.config.retries then begin
            bump t (fun i -> i.retries);
            let pause =
              backoff
              *. (backoff_factor ** float_of_int k)
              *. (1.0 +. (jitter *. Plan.control_uniform t.plan))
            in
            t.clock.advance pause;
            attempt (k + 1)
          end
          else begin
            observe t (fun i -> i.attempts) (float_of_int (k + 1));
            bump t (fun i -> i.exhausted);
            Exhausted
          end
    in
    attempt 0
  end

(* ------------------------------------------------------------------ *)
(* One-way messages. *)

let send_oneway ?(lossy = false) t ~dst ~bytes ~category ~deliver =
  bump t (fun i -> i.oneway);
  if Plan.is_zero t.plan || not lossy then begin
    (* Reliable (or fault-free) delivery is immediate; keep the
       historical bill-only-when-the-delivery-had-effect accounting. *)
    if deliver () then bill t ~dst ~bytes ~category ~copies:1
  end
  else begin
    let v = Plan.message t.plan ~src:client ~dst in
    let copies = if v.Plan.duplicated then 2 else 1 in
    (* Sender pays at send time, delivered or not. *)
    bill t ~dst ~bytes ~category ~copies;
    if v.Plan.lost then bump t (fun i -> i.lost_oneway)
    else begin
      let run () = ignore (deliver ()) in
      if v.Plan.latency = 0.0 then begin
        run ();
        if v.Plan.duplicated then run ()
      end
      else begin
        let arrival = t.clock.now () +. v.Plan.latency in
        Stdx.Event_queue.push t.outbox ~time:arrival run;
        if v.Plan.duplicated then Stdx.Event_queue.push t.outbox ~time:arrival run
      end
    end
  end

let deliver ~time:_ run = run ()
let deliver_until t ~now = Stdx.Event_queue.drain_until t.outbox ~until:now ~f:deliver
let flush_deliveries t = Stdx.Event_queue.drain_until t.outbox ~until:infinity ~f:deliver
let pending_deliveries t = Stdx.Event_queue.length t.outbox
