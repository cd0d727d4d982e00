(* The replicated DHT store: its plain multi-entry map at replication 1,
   then replica failover. *)

module Key = Hashing.Key
module Store = Storage.Replicated_store

let resolver n = Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:5L ~node_count:n ())

let k s = Key.of_string s

(* A single-replica store: every key lives on its responsible node only.
   These stores never price traffic, so entries carry a nominal length. *)
let store ?(r = resolver 10) () = Store.create ~resolver:r ~replication:1 ()
let insert s ~key v = Store.insert s ~len:0 ~key v

let multi_entry_registration () =
  let store : string Store.t = store () in
  insert store ~key:(k "a") "one";
  insert store ~key:(k "a") "two";
  insert store ~key:(k "b") "three";
  Alcotest.(check (list string)) "multiple entries, most recent first" [ "two"; "one" ]
    (Store.lookup store (k "a"));
  Alcotest.(check (list string)) "other key isolated" [ "three" ] (Store.lookup store (k "b"));
  Alcotest.(check (list string)) "missing key" [] (Store.lookup store (k "zzz"));
  Alcotest.(check int) "key count" 2 (Store.key_count store);
  Alcotest.(check int) "entry count" 3 (Store.total_replica_entries store)

let insert_unique_dedups () =
  let store : string Store.t = store () in
  let insert_unique v = Store.insert_unique ~equal:String.equal store ~len:0 ~key:(k "a") v in
  Alcotest.(check bool) "first insert" true (insert_unique "x");
  Alcotest.(check bool) "duplicate rejected" false (insert_unique "x");
  Alcotest.(check bool) "different value accepted" true (insert_unique "y");
  Alcotest.(check int) "two entries" 2 (List.length (Store.lookup store (k "a")))

let remove_entries () =
  let store : int Store.t = store () in
  List.iter (insert store ~key:(k "a")) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "remove evens" 2
    (Store.remove store ~key:(k "a") (fun v -> v mod 2 = 0));
  Alcotest.(check (list int)) "odds remain" [ 3; 1 ] (Store.lookup store (k "a"));
  Alcotest.(check int) "remove all" 2 (Store.remove store ~key:(k "a") (fun _ -> true));
  Alcotest.(check bool) "key gone" false (Store.mem store (k "a"));
  Alcotest.(check int) "remove from missing key" 0
    (Store.remove store ~key:(k "a") (fun _ -> true))

let remove_key_wholesale () =
  let store : int Store.t = store () in
  List.iter (insert store ~key:(k "a")) [ 1; 2; 3 ];
  Alcotest.(check int) "three removed" 3 (Store.remove_key store (k "a"));
  Alcotest.(check int) "idempotent" 0 (Store.remove_key store (k "a"))

let placement_follows_resolver () =
  let r = resolver 10 in
  let store : unit Store.t = store ~r () in
  for i = 1 to 100 do
    let key = k (Printf.sprintf "key-%d" i) in
    insert store ~key ();
    Alcotest.(check int) "node_of matches resolver"
      (Dht.Resolver.responsible r key)
      (Store.node_of store key)
  done;
  let per_node = Store.keys_per_node store in
  Alcotest.(check int) "keys distributed over nodes" 100 (Array.fold_left ( + ) 0 per_node)

let entries_per_node_counts_all () =
  let store : int Store.t = store ~r:(resolver 4) () in
  insert store ~key:(k "a") 1;
  insert store ~key:(k "a") 2;
  insert store ~key:(k "b") 3;
  Alcotest.(check int) "entries sum" 3
    (Array.fold_left ( + ) 0 (Store.entries_per_node store));
  Alcotest.(check int) "keys sum" 2 (Array.fold_left ( + ) 0 (Store.keys_per_node store))

let fold_visits_everything () =
  let store : int Store.t = store ~r:(resolver 7) () in
  for i = 1 to 50 do
    insert store ~key:(k (string_of_int (i mod 10))) i
  done;
  let total = Store.fold store ~init:0 ~f:(fun acc _k entries -> acc + List.length entries) in
  Alcotest.(check int) "fold reaches all entries" 50 total

module Replicated = Storage.Replicated_store

let replicated_basics () =
  let store : string Replicated.t = Replicated.create ~resolver:(resolver 10) ~replication:3 () in
  Replicated.insert store ~len:0 ~key:(k "a") "x";
  Alcotest.(check (list string)) "lookup" [ "x" ] (Replicated.lookup store (k "a"));
  Alcotest.(check bool) "available" true (Replicated.available store (k "a"));
  Alcotest.(check int) "one key" 1 (Replicated.key_count store);
  Alcotest.(check int) "three replica entries" 3 (Replicated.total_replica_entries store);
  Alcotest.(check (list string)) "missing key" [] (Replicated.lookup store (k "nope"))

let replicated_survives_primary_failure () =
  let r = resolver 10 in
  let store : int Replicated.t = Replicated.create ~resolver:r ~replication:3 () in
  Replicated.insert store ~len:0 ~key:(k "a") 1;
  let primary = Dht.Resolver.responsible r (k "a") in
  Replicated.fail_node store primary;
  Alcotest.(check bool) "primary down" false (Replicated.alive store primary);
  Alcotest.(check (list int)) "served by a replica" [ 1 ] (Replicated.lookup store (k "a"));
  (* Fail every replica: the key becomes unavailable. *)
  List.iter (Replicated.fail_node store) (Dht.Resolver.replicas r (k "a") 3);
  Alcotest.(check bool) "all replicas down" false (Replicated.available store (k "a"));
  Alcotest.(check (list int)) "lookup empty" [] (Replicated.lookup store (k "a"));
  (* Revival restores it. *)
  Replicated.revive_node store primary;
  Alcotest.(check (list int)) "revived" [ 1 ] (Replicated.lookup store (k "a"))

let replicated_single_replica_is_fragile () =
  let r = resolver 10 in
  let store : int Replicated.t = Replicated.create ~resolver:r ~replication:1 () in
  Replicated.insert store ~len:0 ~key:(k "a") 1;
  Replicated.fail_node store (Dht.Resolver.responsible r (k "a"));
  Alcotest.(check bool) "gone with one replica" false (Replicated.available store (k "a"))

let replicated_all_replicas_failed () =
  let r = resolver 6 in
  let store : int Replicated.t = Replicated.create ~resolver:r ~replication:3 () in
  Replicated.insert store ~len:0 ~key:(k "a") 1;
  Replicated.insert store ~len:0 ~key:(k "b") 2;
  List.iter (Replicated.fail_node store) (Dht.Resolver.replicas r (k "a") 3);
  Alcotest.(check bool) "key a unavailable" false (Replicated.available store (k "a"));
  Alcotest.(check (list int)) "key a lookup empty" [] (Replicated.lookup store (k "a"));
  (* Repair cannot re-home a key with no live holder: it stays lost until
     a replica comes back or the publisher republishes. *)
  let restored = ref 0 in
  ignore
    (Replicated.repair ~on_restore:(fun ~node:_ _ -> incr restored) store : int);
  Alcotest.(check bool) "still unavailable after repair" false
    (Replicated.available store (k "a"));
  (* Contents were kept, not dropped: one revival brings the key back. *)
  Replicated.revive_node store (Dht.Resolver.responsible r (k "a"));
  Alcotest.(check (list int)) "revival restores" [ 1 ] (Replicated.lookup store (k "a"))

let replicated_fail_is_idempotent () =
  let r = resolver 6 in
  let store : int Replicated.t = Replicated.create ~resolver:r ~replication:2 () in
  Replicated.insert store ~len:0 ~key:(k "a") 1;
  let primary = Dht.Resolver.responsible r (k "a") in
  Replicated.fail_node store primary;
  (* Failing an already-failed node changes nothing. *)
  Replicated.fail_node store primary;
  Alcotest.(check bool) "still down" false (Replicated.alive store primary);
  Alcotest.(check (list int)) "replica still answers" [ 1 ]
    (Replicated.lookup store (k "a"));
  (* One revival undoes any number of fails — dead/alive is a set, not a
     counter. *)
  Replicated.revive_node store primary;
  Alcotest.(check bool) "one revive suffices" true (Replicated.alive store primary)

let ring_replicas_wrap_around () =
  (* r = node_count: every node, once, starting at the primary. *)
  Alcotest.(check (list int)) "full ring from 3" [ 3; 4; 0; 1; 2 ]
    (Dht.Resolver.ring_replicas ~node_count:5 ~primary:3 5);
  (* r > node_count: capped, no duplicates from a second lap. *)
  Alcotest.(check (list int)) "capped beyond node count" [ 3; 4; 0; 1; 2 ]
    (Dht.Resolver.ring_replicas ~node_count:5 ~primary:3 12);
  Alcotest.(check (list int)) "single node network" [ 0 ]
    (Dht.Resolver.ring_replicas ~node_count:1 ~primary:0 4)

let replicated_validation () =
  Alcotest.check_raises "replication >= 1"
    (Invalid_argument "Replicated_store.create: need at least one replica") (fun () ->
      ignore (Replicated.create ~resolver:(resolver 4) ~replication:0 () : int Replicated.t))

let resolver_replicas_distinct () =
  let r = resolver 10 in
  let nodes = Dht.Resolver.replicas r (k "key") 4 in
  Alcotest.(check int) "four replicas" 4 (List.length nodes);
  Alcotest.(check int) "all distinct" 4 (List.length (List.sort_uniq Int.compare nodes));
  (match nodes with
  | primary :: _ ->
      Alcotest.(check int) "primary first" (Dht.Resolver.responsible r (k "key")) primary
  | [] -> Alcotest.fail "no replicas");
  (* More replicas than nodes: capped at the network size. *)
  Alcotest.(check int) "capped at node count" 10
    (List.length (Dht.Resolver.replicas r (k "key") 25))

let store_roundtrip_property =
  QCheck.Test.make ~name:"insert then lookup finds every entry" ~count:200
    QCheck.(list (pair (string_of_size (QCheck.Gen.int_range 1 12)) small_int))
    (fun pairs ->
      let store : int Store.t = store ~r:(resolver 16) () in
      List.iter (fun (name, v) -> insert store ~key:(k name) v) pairs;
      List.for_all (fun (name, v) -> List.mem v (Store.lookup store (k name))) pairs)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "storage",
      [
        Alcotest.test_case "multi-entry registration" `Quick multi_entry_registration;
        Alcotest.test_case "insert_unique dedups" `Quick insert_unique_dedups;
        Alcotest.test_case "remove with predicate" `Quick remove_entries;
        Alcotest.test_case "remove_key" `Quick remove_key_wholesale;
        Alcotest.test_case "placement follows resolver" `Quick placement_follows_resolver;
        Alcotest.test_case "entries vs keys per node" `Quick entries_per_node_counts_all;
        Alcotest.test_case "fold" `Quick fold_visits_everything;
      ]
      @ qcheck [ store_roundtrip_property ] );
    ( "storage:replication",
      [
        Alcotest.test_case "basics" `Quick replicated_basics;
        Alcotest.test_case "survives primary failure" `Quick
          replicated_survives_primary_failure;
        Alcotest.test_case "single replica fragile" `Quick
          replicated_single_replica_is_fragile;
        Alcotest.test_case "all replicas failed" `Quick replicated_all_replicas_failed;
        Alcotest.test_case "fail_node idempotent" `Quick replicated_fail_is_idempotent;
        Alcotest.test_case "ring_replicas wrap-around" `Quick ring_replicas_wrap_around;
        Alcotest.test_case "validation" `Quick replicated_validation;
        Alcotest.test_case "resolver replica sets" `Quick resolver_replicas_distinct;
      ] );
  ]
