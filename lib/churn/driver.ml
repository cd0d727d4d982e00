type event = Fail of int | Join of int | Republish | Repair

type config = {
  session : Lifetime.t;
  downtime : Lifetime.t;
  republish_period : float;
  repair_period : float;
}

type instruments = {
  live_nodes : Obs.Metrics.Gauge.t;
  failures : Obs.Metrics.Counter.t;
  joins : Obs.Metrics.Counter.t;
  republishes : Obs.Metrics.Counter.t;
  repairs : Obs.Metrics.Counter.t;
}

(* The virtual clock only moves forward: to each fired event's time,
   then to the [until] of the [run_until] call. *)
type t = {
  queue : event Stdx.Event_queue.t;
  prng : Stdx.Prng.t;
  mutable now : float;
  liveness : Dht.Liveness.t;
  config : config;
  instruments : instruments option;
}

let make_instruments registry liveness =
  let counter name help = Obs.Metrics.counter registry ~help name in
  let live_nodes =
    Obs.Metrics.gauge registry ~help:"Nodes currently alive under churn"
      "p2pindex_churn_live_nodes"
  in
  Obs.Metrics.Gauge.set live_nodes (float_of_int (Dht.Liveness.live_count liveness));
  {
    live_nodes;
    failures = counter "p2pindex_churn_failures_total" "Abrupt node failures";
    joins = counter "p2pindex_churn_joins_total" "Nodes rejoining after downtime";
    republishes =
      counter "p2pindex_churn_republishes_total" "Global republish rounds";
    repairs = counter "p2pindex_churn_repairs_total" "Anti-entropy repair passes";
  }

let check_period name period =
  if Float.is_nan period || period <= 0. then
    invalid_arg (Printf.sprintf "Churn.Driver: %s must be > 0 (or infinity)" name)

let create ?metrics ~seed ~liveness config =
  check_period "republish_period" config.republish_period;
  check_period "repair_period" config.repair_period;
  let queue = Stdx.Event_queue.create ~dummy:Republish () in
  let prng = Stdx.Prng.create ~seed in
  (* One lifetime draw per node, in node order, so the whole schedule is a
     pure function of the seed. *)
  for node = 0 to Dht.Liveness.node_count liveness - 1 do
    Stdx.Event_queue.push queue ~time:(Lifetime.sample config.session prng) (Fail node)
  done;
  if config.republish_period < infinity then
    Stdx.Event_queue.push queue ~time:config.republish_period Republish;
  if config.repair_period < infinity then
    Stdx.Event_queue.push queue ~time:config.repair_period Repair;
  {
    queue;
    prng;
    now = 0.0;
    liveness;
    config;
    instruments = Option.map (fun r -> make_instruments r liveness) metrics;
  }

let schedule_after t ~delay event =
  Stdx.Event_queue.push t.queue ~time:(t.now +. delay) event

let set_gauge t =
  match t.instruments with
  | None -> ()
  | Some ins ->
      Obs.Metrics.Gauge.set ins.live_nodes
        (float_of_int (Dht.Liveness.live_count t.liveness))

let count t pick =
  match t.instruments with
  | None -> ()
  | Some ins -> Obs.Metrics.Counter.incr (pick ins)

let run_until t ~until ~on_fail ~on_join ~on_republish ~on_repair =
  let fire ~time event =
    if time > t.now then t.now <- time;
    match event with
    | Fail node ->
        if Dht.Liveness.fail t.liveness node then begin
          count t (fun i -> i.failures);
          set_gauge t;
          on_fail ~time node
        end;
        schedule_after t ~delay:(Lifetime.sample t.config.downtime t.prng) (Join node)
    | Join node ->
        if Dht.Liveness.revive t.liveness node then begin
          count t (fun i -> i.joins);
          set_gauge t;
          on_join ~time node
        end;
        schedule_after t ~delay:(Lifetime.sample t.config.session t.prng) (Fail node)
    | Republish ->
        count t (fun i -> i.republishes);
        on_republish ~time;
        schedule_after t ~delay:t.config.republish_period Republish
    | Repair ->
        count t (fun i -> i.repairs);
        on_repair ~time;
        schedule_after t ~delay:t.config.repair_period Repair
  in
  ignore (Stdx.Event_queue.drain_until t.queue ~until ~f:fire : int);
  if until > t.now then t.now <- until
