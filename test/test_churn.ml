(* Churn subsystem: event-queue ordering, driver determinism, and the
   churn-0 degeneration of the runner to the static simulation. *)

module Q = Stdx.Event_queue
module Driver = Churn.Driver
module Lifetime = Churn.Lifetime

let drain q =
  let rec go acc =
    match Q.pop q with Some cell -> go (cell :: acc) | None -> List.rev acc
  in
  go []

(* One property covers both ordering claims: the popped sequence must be
   exactly the stable sort of the push sequence by time — nondecreasing
   times, and FIFO order among equal times (the payload is the push
   index, so stability is observable). *)
let queue_order_property =
  QCheck.Test.make ~name:"pop order is the stable sort of the push order" ~count:300
    QCheck.(list small_nat)
    (fun raw ->
      let times = List.map (fun n -> float_of_int (n mod 20)) raw in
      let q : int Q.t = Q.create ~dummy:0 () in
      List.iteri (fun i time -> Q.push q ~time i) times;
      let expected =
        List.stable_sort
          (fun (a, _) (b, _) -> Float.compare a b)
          (List.mapi (fun i time -> (time, i)) times)
      in
      drain q = expected)

let queue_fifo_ties () =
  let q : string Q.t = Q.create ~dummy:"" () in
  Q.push q ~time:5.0 "first";
  Q.push q ~time:5.0 "second";
  Q.push q ~time:1.0 "early";
  Q.push q ~time:5.0 "third";
  Alcotest.(check (list (pair (float 0.0) string)))
    "earlier first, ties in push order"
    [ (1.0, "early"); (5.0, "first"); (5.0, "second"); (5.0, "third") ]
    (drain q);
  Alcotest.check_raises "NaN rejected" (Invalid_argument "Event_queue.push: NaN time")
    (fun () -> Q.push q ~time:Float.nan "bad")

let queue_pop_until () =
  let q : int Q.t = Q.create ~dummy:0 () in
  Q.push q ~time:2.0 1;
  Q.push q ~time:7.0 2;
  Alcotest.(check (option (pair (float 0.0) int))) "within horizon" (Some (2.0, 1))
    (Q.pop_until q ~until:5.0);
  Alcotest.(check (option (pair (float 0.0) int))) "beyond horizon" None
    (Q.pop_until q ~until:5.0);
  Alcotest.(check int) "event kept" 1 (Q.length q)

(* Push a fresh heap payload whose only other reference is a weak one.
   Kept out of line so no register or stack slot of the caller holds it. *)
let[@inline never] push_tracked q weak i ~time =
  let payload = Bytes.make 16 (Char.chr (65 + (i mod 26))) in
  Weak.set weak i (Some payload);
  Q.push q ~time payload

let[@inline never] pop_all q =
  let rec go () = match Q.pop q with Some _ -> go () | None -> () in
  go ()

let queue_releases_popped () =
  List.iter
    (fun n ->
      let q : Bytes.t Q.t = Q.create ~dummy:Bytes.empty () in
      let weak = Weak.create n in
      for i = 0 to n - 1 do
        push_tracked q weak i ~time:(float_of_int ((i * 7) mod 5))
      done;
      Gc.full_major ();
      Alcotest.(check bool) (Printf.sprintf "%d queued payloads live" n) true
        (Weak.check weak 0 && Weak.check weak (n - 1));
      pop_all q;
      Gc.full_major ();
      for i = 0 to n - 1 do
        if Weak.check weak i then
          Alcotest.failf "payload %d of %d retained after its pop" i n
      done;
      Alcotest.(check int) "queue empty" 0 (Q.length (Sys.opaque_identity q)))
    (* One payload, and enough to grow past the initial 16 slots. *)
    [ 1; 40 ]

let lifetime_samples_positive () =
  let g = Stdx.Prng.create ~seed:3L in
  List.iter
    (fun dist ->
      let sum = ref 0.0 in
      let n = 20_000 in
      for _ = 1 to n do
        let x = Lifetime.sample dist g in
        if not (x > 0.0 && Float.is_finite x) then
          Alcotest.failf "bad sample %g from %s" x (Lifetime.label dist);
        sum := !sum +. x
      done;
      (* The Pareto tail (alpha 1.5) converges slowly; only the
         exponential gets a tight empirical-mean check. *)
      match dist with
      | Lifetime.Exponential _ ->
          let empirical = !sum /. float_of_int n in
          if Float.abs (empirical -. Lifetime.mean dist) > 0.1 *. Lifetime.mean dist then
            Alcotest.failf "empirical mean %g too far from %g" empirical
              (Lifetime.mean dist)
      | Lifetime.Pareto _ -> ())
    [ Lifetime.exponential ~mean:30.0; Lifetime.pareto ~mean:30.0 () ]

(* Record a driver's full event schedule over a horizon. *)
let driver_schedule ~seed =
  let liveness = Dht.Liveness.create ~node_count:20 in
  let cfg =
    {
      Driver.session = Lifetime.exponential ~mean:40.0;
      downtime = Lifetime.exponential ~mean:10.0;
      republish_period = 25.0;
      repair_period = 60.0;
    }
  in
  let d = Driver.create ~seed ~liveness cfg in
  let events = ref [] in
  let record time tag = events := (time, tag) :: !events in
  Driver.run_until d ~until:300.0
    ~on_fail:(fun ~time n -> record time (Printf.sprintf "fail %d" n))
    ~on_join:(fun ~time n -> record time (Printf.sprintf "join %d" n))
    ~on_republish:(fun ~time -> record time "republish")
    ~on_repair:(fun ~time -> record time "repair");
  List.rev !events

let driver_deterministic () =
  let a = driver_schedule ~seed:11L in
  let b = driver_schedule ~seed:11L in
  Alcotest.(check (list (pair (float 0.0) string))) "same seed, same schedule" a b;
  Alcotest.(check bool) "schedule is non-trivial" true (List.length a > 50);
  let c = driver_schedule ~seed:12L in
  Alcotest.(check bool) "different seed, different schedule" true (a <> c);
  (* Times fire in nondecreasing order. *)
  ignore
    (List.fold_left
       (fun prev (time, _) ->
         if time < prev then Alcotest.failf "time went backwards: %g < %g" time prev;
         time)
       0.0 a)

let driver_alternates_per_node () =
  (* Each node strictly alternates fail/join, starting with a fail. *)
  let events = driver_schedule ~seed:7L in
  let state = Hashtbl.create 20 in
  List.iter
    (fun (_, tag) ->
      match String.split_on_char ' ' tag with
      | [ ("fail" | "join") as kind; node ] ->
          let prev = Hashtbl.find_opt state node in
          (match (kind, prev) with
          | "fail", (None | Some "join") | "join", Some "fail" -> ()
          | _ -> Alcotest.failf "node %s: %s after %s" node kind
                   (Option.value prev ~default:"nothing"));
          Hashtbl.replace state node kind
      | _ -> ())
    events

(* The hard degeneration claim: churn rate 0 (at replication 1) must
   reproduce the static runner byte for byte — same traffic, same
   placement, same cache behaviour. *)
let churn_zero_equals_static () =
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
  let static = Sim.Runner.run base in
  let churned =
    Sim.Runner.run
      {
        base with
        churn = Some { Sim.Runner.default_churn with churn_rate = 0.0; replication = 1 };
      }
  in
  let check_int what f =
    Alcotest.(check int) what (f static) (f churned)
  in
  let open Sim.Runner in
  check_int "request bytes" request_bytes;
  check_int "response bytes" response_bytes;
  check_int "cache bytes" cache_bytes;
  check_int "maintenance bytes" maintenance_bytes;
  check_int "publish bytes" (fun r -> r.publish_bytes);
  check_int "network messages" network_messages;
  check_int "hits" (fun r -> r.hits);
  check_int "hits at first node" (fun r -> r.hits_first_node);
  check_int "errors" (fun r -> r.errors);
  check_int "unreachable" (fun r -> r.unreachable);
  check_int "index bytes" (fun r -> r.index_bytes);
  check_int "article bytes" (fun r -> r.article_bytes);
  check_int "index mappings" (fun r -> r.index_mappings);
  Alcotest.(check (float 0.0)) "interactions mean" (interactions_mean static)
    (interactions_mean churned);
  Alcotest.(check (array int)) "per-node touches" static.node_touches churned.node_touches;
  Alcotest.(check (array int)) "per-node cached keys" static.cached_keys churned.cached_keys;
  Alcotest.(check (array int)) "per-node regular keys" static.regular_keys
    churned.regular_keys

let churn_degrades_availability () =
  let base =
    {
      Sim.Runner.default_config with
      node_count = 50;
      article_count = 500;
      query_count = 1_000;
    }
  in
  let run ~rate ~replication =
    Sim.Runner.run
      {
        base with
        churn =
          Some
            {
              Sim.Runner.default_churn with
              churn_rate = rate;
              replication;
              ttl = 60.0;
              republish_period = 20.0;
              repair_period = 8.0;
              query_rate = 20.0;
            };
      }
  in
  let fragile = run ~rate:0.02 ~replication:1 in
  let replicated = run ~rate:0.02 ~replication:3 in
  Alcotest.(check bool) "unreplicated churn loses sessions" true
    (Sim.Runner.availability fragile < 1.0);
  Alcotest.(check bool) "replication recovers availability" true
    (Sim.Runner.availability replicated > Sim.Runner.availability fragile);
  Alcotest.(check bool) "maintenance traffic billed" true
    (Sim.Runner.maintenance_bytes fragile > 0)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "churn:event-queue",
      [
        Alcotest.test_case "FIFO ties and NaN rejection" `Quick queue_fifo_ties;
        Alcotest.test_case "pop_until horizon" `Quick queue_pop_until;
        Alcotest.test_case "popped events are not retained" `Quick queue_releases_popped;
      ]
      @ qcheck [ queue_order_property ] );
    ( "churn:driver",
      [
        Alcotest.test_case "lifetime samples" `Quick lifetime_samples_positive;
        Alcotest.test_case "identical seeds, identical schedules" `Quick
          driver_deterministic;
        Alcotest.test_case "fail/join alternation" `Quick driver_alternates_per_node;
      ] );
    ( "churn:runner",
      [
        Alcotest.test_case "churn 0 = static, byte for byte" `Quick
          churn_zero_equals_static;
        Alcotest.test_case "availability degrades and recovers" `Quick
          churn_degrades_availability;
      ] );
  ]
