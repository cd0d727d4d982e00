(* DHT substrate tests: the network accounting layer, the static resolver,
   and the Chord protocol (routing, joins, stabilization, failures). *)

module Key = Hashing.Key
module Network = Dht.Network
module Static = Dht.Static_dht
module Chord = Dht.Chord
module Pastry = Dht.Pastry

let network_accounting () =
  let net = Network.create ~node_count:4 () in
  Network.send net ~dst:0 ~bytes:100 ~category:Network.Request;
  Network.send net ~dst:1 ~bytes:250 ~category:Network.Response;
  Network.send net ~dst:1 ~bytes:50 ~category:Network.Cache_update;
  Network.touch net ~node:1;
  Network.touch net ~node:1;
  Network.touch net ~node:3;
  Alcotest.(check int) "request messages" 1 (Network.messages net Network.Request);
  Alcotest.(check int) "response bytes" 250 (Network.bytes net Network.Response);
  Alcotest.(check int) "total bytes" 400 (Network.total_bytes net);
  Alcotest.(check int) "total messages" 3 (Network.total_messages net);
  Alcotest.(check (array int)) "touches" [| 0; 2; 0; 1 |] (Network.touches net);
  Network.reset net;
  Alcotest.(check int) "reset clears bytes" 0 (Network.total_bytes net);
  Alcotest.(check (array int)) "reset clears touches" [| 0; 0; 0; 0 |] (Network.touches net)

let network_bad_destination () =
  let net = Network.create ~node_count:2 () in
  Alcotest.check_raises "destination checked"
    (Invalid_argument "Network.send: node 5 out of range [0, 2)") (fun () ->
      Network.send net ~dst:5 ~bytes:1 ~category:Network.Request);
  Alcotest.check_raises "negative bytes rejected"
    (Invalid_argument "Network.send: negative byte count -7") (fun () ->
      Network.send net ~dst:0 ~bytes:(-7) ~category:Network.Request);
  Alcotest.check_raises "touch checked"
    (Invalid_argument "Network.touch: node -1 out of range [0, 2)") (fun () ->
      Network.touch net ~node:(-1))

let static_ownership_brute_force () =
  let dht = Static.create ~seed:7L ~node_count:50 () in
  let keys = Array.init 50 (Static.node_key dht) in
  let brute key =
    (* The owner is the node minimizing the clockwise distance from the key. *)
    let best = ref 0 in
    for i = 1 to 49 do
      if
        Key.to_float (Key.distance_cw key keys.(i))
        < Key.to_float (Key.distance_cw key keys.(!best))
      then best := i
    done;
    !best
  in
  let g = Stdx.Prng.create ~seed:13L in
  for _ = 1 to 200 do
    let key = Key.random g in
    Alcotest.(check int)
      (Printf.sprintf "owner of %s" (Key.short_hex key))
      (brute key) (Static.responsible dht key)
  done

let static_node_key_is_own_owner () =
  let dht = Static.create ~seed:3L ~node_count:20 () in
  for i = 0 to 19 do
    Alcotest.(check int) "a node owns its own identifier" i
      (Static.responsible dht (Static.node_key dht i))
  done

let static_rejects_duplicates () =
  Alcotest.check_raises "duplicates rejected"
    (Invalid_argument "Static_dht.of_keys: duplicate node identifier") (fun () ->
      ignore (Static.of_keys [| Key.of_int 1; Key.of_int 1 |]))

let static_single_node_owns_all () =
  let dht = Static.of_keys [| Key.of_int 42 |] in
  let g = Stdx.Prng.create ~seed:1L in
  for _ = 1 to 20 do
    Alcotest.(check int) "single node owns everything" 0
      (Static.responsible dht (Key.random g))
  done

let chord_network_converged () =
  let ring = Chord.create_network ~seed:11L ~node_count:64 () in
  Alcotest.(check int) "64 live nodes" 64 (Chord.live_count ring);
  Alcotest.(check bool) "bootstrap network is converged" true (Chord.is_converged ring)

let chord_lookup_matches_oracle () =
  let ring = Chord.create_network ~seed:5L ~node_count:100 () in
  let g = Stdx.Prng.create ~seed:21L in
  for _ = 1 to 300 do
    let key = Key.random g in
    let owner, _hops = Chord.lookup ring key in
    Alcotest.(check string)
      (Printf.sprintf "lookup %s" (Key.short_hex key))
      (Key.to_hex (Chord.responsible_oracle ring key))
      (Key.to_hex owner)
  done

let chord_lookup_hops_logarithmic () =
  let ring = Chord.create_network ~seed:5L ~node_count:256 () in
  let g = Stdx.Prng.create ~seed:22L in
  let summary = Stdx.Stats.Summary.create () in
  for _ = 1 to 500 do
    let key = Key.random g in
    let _owner, hops = Chord.lookup ring key in
    Stdx.Stats.Summary.add_int summary hops
  done;
  let mean = Stdx.Stats.Summary.mean summary in
  (* Chord promises ~(1/2) log2 N hops on average; allow generous slack. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean hops %.2f within [1.5, 8] for N=256" mean)
    true
    (mean >= 1.5 && mean <= 8.0);
  Alcotest.(check bool) "max hops bounded by 2 log2 N" true
    (Stdx.Stats.Summary.max summary <= 16.0)

let chord_lookup_from_every_node () =
  let ring = Chord.create_network ~seed:9L ~node_count:40 () in
  let g = Stdx.Prng.create ~seed:33L in
  let key = Key.random g in
  let expected = Chord.responsible_oracle ring key in
  List.iter
    (fun from ->
      let owner, _ = Chord.lookup ring ~from key in
      Alcotest.(check string)
        (Printf.sprintf "from %s" (Key.short_hex from))
        (Key.to_hex expected) (Key.to_hex owner))
    (Chord.live_keys ring)

let chord_incremental_join_converges () =
  let ring = Chord.create ~seed:17L () in
  (* Join 24 nodes one at a time, stabilizing a little between joins, as a
     real deployment would. *)
  for _ = 1 to 24 do
    ignore (Chord.join ring);
    Chord.stabilize ring ~rounds:2
  done;
  Chord.stabilize ring ~rounds:8;
  Alcotest.(check int) "24 nodes" 24 (Chord.live_count ring);
  Alcotest.(check bool) "stabilization converges" true (Chord.is_converged ring)

let chord_join_explicit_key () =
  let ring = Chord.create ~seed:1L () in
  Chord.join_with_key ring (Key.of_int 100);
  Chord.join_with_key ring (Key.of_int 200);
  Chord.join_with_key ring (Key.of_int 300);
  Chord.stabilize ring ~rounds:6;
  Alcotest.(check bool) "converged" true (Chord.is_converged ring);
  (* Key 150 belongs to node 200; key 350 wraps to node 100. *)
  let owner, _ = Chord.lookup ring (Key.of_int 150) in
  Alcotest.(check string) "owner of 150" (Key.to_hex (Key.of_int 200)) (Key.to_hex owner);
  let owner, _ = Chord.lookup ring (Key.of_int 350) in
  Alcotest.(check string) "owner of 350 wraps" (Key.to_hex (Key.of_int 100))
    (Key.to_hex owner)

let chord_duplicate_join_rejected () =
  let ring = Chord.create ~seed:1L () in
  Chord.join_with_key ring (Key.of_int 5);
  Alcotest.check_raises "duplicate join"
    (Invalid_argument "Chord.join_with_key: identifier already joined") (fun () ->
      Chord.join_with_key ring (Key.of_int 5))

let chord_failure_recovery () =
  let ring = Chord.create_network ~seed:29L ~node_count:50 () in
  let keys = Chord.live_keys ring in
  (* Abruptly fail 10 nodes, then let stabilization repair the ring. *)
  let victims = List.filteri (fun i _ -> i mod 5 = 0) keys in
  List.iter (Chord.leave ring) victims;
  Alcotest.(check int) "40 nodes remain" 40 (Chord.live_count ring);
  Chord.stabilize ring ~rounds:6;
  Alcotest.(check bool) "repaired after churn" true (Chord.is_converged ring);
  let g = Stdx.Prng.create ~seed:31L in
  for _ = 1 to 100 do
    let key = Key.random g in
    let owner, _ = Chord.lookup ring key in
    Alcotest.(check string) "post-churn lookup correct"
      (Key.to_hex (Chord.responsible_oracle ring key))
      (Key.to_hex owner)
  done

let chord_leave_unknown_raises () =
  let ring = Chord.create_network ~seed:2L ~node_count:3 () in
  Alcotest.check_raises "unknown node" Not_found (fun () ->
      Chord.leave ring (Key.of_int 424242))

let chord_single_node_ring () =
  let ring = Chord.create ~seed:3L () in
  Chord.join_with_key ring (Key.of_int 77);
  let owner, hops = Chord.lookup ring (Key.of_int 123456) in
  Alcotest.(check string) "sole node owns all" (Key.to_hex (Key.of_int 77))
    (Key.to_hex owner);
  Alcotest.(check bool) "lookup terminates quickly" true (hops <= 2);
  Alcotest.(check bool) "single node converged" true (Chord.is_converged ring)

let chord_resolver_agrees_with_static () =
  (* A converged Chord ring and a static DHT over the same node identifiers
     must assign every key to the same node. *)
  let ring = Chord.create_network ~seed:41L ~node_count:30 () in
  let keys = Array.of_list (Chord.live_keys ring) in
  let static = Static.of_keys keys in
  let chord_resolver = Chord.resolver ring in
  let g = Stdx.Prng.create ~seed:43L in
  for _ = 1 to 200 do
    let key = Key.random g in
    Alcotest.(check int) "same ownership"
      (Static.responsible static key)
      (Dht.Resolver.responsible chord_resolver key)
  done

let arbitrary_node_count = QCheck.make ~print:string_of_int (QCheck.Gen.int_range 1 60)

let chord_always_converges_after_bootstrap =
  QCheck.Test.make ~name:"create_network always converged" ~count:20 arbitrary_node_count
    (fun n ->
      let ring = Chord.create_network ~seed:(Int64.of_int (n + 1)) ~node_count:n () in
      Chord.is_converged ring)

(* The cached live count and minimal live key must track every join,
   failure and rejoin: compare them with what the node table itself
   says.  Ops pick a live (or failed) node by index modulo the count;
   an empty ring must report no first live node. *)
let chord_membership_caches_track_table =
  QCheck.Test.make ~name:"cached live count and first live key match the table"
    ~count:100
    QCheck.(pair (int_range 1 1_000) (small_list (pair (int_bound 2) small_nat)))
    (fun (seed, ops) ->
      let ring = Chord.create ~seed:(Int64.of_int seed) () in
      let failed = ref [] in
      let consistent () =
        let live = Chord.live_keys ring in
        Chord.live_count ring = List.length live
        &&
        match live with
        | [] -> (
            match Chord.first_live ring with _ -> false | exception Not_found -> true)
        | first :: _ -> Key.equal (Chord.first_live ring) first
      in
      List.for_all
        (fun (op, pick) ->
          (match (op, Chord.live_keys ring, !failed) with
          | 1, (_ :: _ as live), _ ->
              let key = List.nth live (pick mod List.length live) in
              Chord.leave ring key;
              failed := key :: !failed
          | 2, _, (_ :: _ as dead) ->
              let key = List.nth dead (pick mod List.length dead) in
              Chord.join_with_key ring key;
              failed := List.filter (fun k -> not (Key.equal k key)) dead
          | _ -> ignore (Chord.join ring : Key.t));
          consistent ())
        ops)

(* ------------------------------------------------------------------ *)
(* Pastry. *)

let key_nibbles () =
  let k = Key.of_hex "a0f3000000000000000000000000000000000000" in
  Alcotest.(check int) "nibble 0" 0xA (Key.nibble k 0);
  Alcotest.(check int) "nibble 1" 0x0 (Key.nibble k 1);
  Alcotest.(check int) "nibble 2" 0xF (Key.nibble k 2);
  Alcotest.(check int) "nibble 3" 0x3 (Key.nibble k 3);
  Alcotest.check_raises "nibble bounds" (Invalid_argument "Key.nibble: index out of range")
    (fun () -> ignore (Key.nibble k 40))

let pastry_network_converged () =
  let net = Pastry.create_network ~seed:3L ~node_count:80 () in
  Alcotest.(check int) "80 nodes" 80 (Pastry.live_count net);
  Alcotest.(check bool) "converged" true (Pastry.is_converged net)

let pastry_lookup_matches_oracle () =
  let net = Pastry.create_network ~seed:5L ~node_count:120 () in
  let g = Stdx.Prng.create ~seed:7L in
  for _ = 1 to 300 do
    let key = Key.random g in
    let owner, _hops = Pastry.lookup net key in
    Alcotest.(check string)
      (Printf.sprintf "lookup %s" (Key.short_hex key))
      (Key.to_hex (Pastry.responsible_oracle net key))
      (Key.to_hex owner)
  done

let pastry_hops_logarithmic () =
  let net = Pastry.create_network ~seed:11L ~node_count:256 () in
  let g = Stdx.Prng.create ~seed:13L in
  let summary = Stdx.Stats.Summary.create () in
  for _ = 1 to 400 do
    let _owner, hops = Pastry.lookup net (Key.random g) in
    Stdx.Stats.Summary.add_int summary hops
  done;
  let mean = Stdx.Stats.Summary.mean summary in
  (* log16(256) = 2 digits plus a couple of leaf-set hops. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean hops %.2f within [1.5, 6]" mean)
    true
    (mean >= 1.5 && mean <= 6.0)

let pastry_lookup_from_every_node () =
  let net = Pastry.create_network ~seed:17L ~node_count:50 () in
  let g = Stdx.Prng.create ~seed:19L in
  let key = Key.random g in
  let expected = Pastry.responsible_oracle net key in
  List.iter
    (fun from ->
      let owner, _ = Pastry.lookup net ~from key in
      Alcotest.(check string)
        (Printf.sprintf "from %s" (Key.short_hex from))
        (Key.to_hex expected) (Key.to_hex owner))
    (Pastry.live_keys net)

let pastry_joins_converge () =
  let net = Pastry.create_network ~seed:23L ~node_count:30 () in
  for _ = 1 to 20 do
    ignore (Pastry.join net)
  done;
  Pastry.repair net;
  Alcotest.(check int) "50 nodes" 50 (Pastry.live_count net);
  Alcotest.(check bool) "joined network converged" true (Pastry.is_converged net)

let pastry_failure_recovery () =
  let net = Pastry.create_network ~seed:29L ~node_count:60 () in
  let victims = List.filteri (fun i _ -> i mod 5 = 0) (Pastry.live_keys net) in
  List.iter (Pastry.leave net) victims;
  Pastry.repair net;
  Pastry.repair net;
  Pastry.repair net;
  Alcotest.(check int) "48 nodes remain" 48 (Pastry.live_count net);
  Alcotest.(check bool) "repaired after churn" true (Pastry.is_converged net)

let pastry_single_node () =
  let net = Pastry.create ~seed:1L () in
  Pastry.join_with_key net (Key.of_int 5);
  let owner, hops = Pastry.lookup net (Key.of_int 999) in
  Alcotest.(check string) "sole node owns all" (Key.to_hex (Key.of_int 5)) (Key.to_hex owner);
  Alcotest.(check bool) "fast" true (hops <= 2)

let pastry_duplicate_join_rejected () =
  let net = Pastry.create ~seed:1L () in
  Pastry.join_with_key net (Key.of_int 5);
  Alcotest.check_raises "duplicate join"
    (Invalid_argument "Pastry.join_with_key: identifier already joined") (fun () ->
      Pastry.join_with_key net (Key.of_int 5))

let pastry_resolver_numerically_closest () =
  (* Pastry's ownership rule differs from Chord's: the numerically closest
     node, not the clockwise successor. *)
  let net = Pastry.create_network ~seed:31L ~node_count:40 () in
  let resolver = Pastry.resolver net in
  let keys = Array.of_list (Pastry.live_keys net) in
  let g = Stdx.Prng.create ~seed:37L in
  for _ = 1 to 200 do
    let key = Key.random g in
    let owner = keys.(Dht.Resolver.responsible resolver key) in
    Alcotest.(check string) "resolver matches oracle"
      (Key.to_hex (Pastry.responsible_oracle net key))
      (Key.to_hex owner)
  done

(* ------------------------------------------------------------------ *)
(* CAN. *)

module Can = Dht.Can

let can_well_formed_after_joins () =
  let net = Can.create_network ~seed:3L ~dimensions:2 ~node_count:60 () in
  Alcotest.(check int) "60 nodes" 60 (Can.node_count net);
  Alcotest.(check bool) "zones tile the space" true (Can.is_well_formed net)

let can_lookup_matches_owner () =
  let net = Can.create_network ~seed:5L ~dimensions:2 ~node_count:80 () in
  let g = Stdx.Prng.create ~seed:7L in
  for _ = 1 to 200 do
    let key = Key.random g in
    let owner, _hops = Can.lookup net key in
    Alcotest.(check int) "greedy routing reaches the owner"
      (Can.owner_of_point net (Can.point_of_key net key))
      owner
  done

let can_hops_scale_with_dimension () =
  (* O(d/4 * n^(1/d)): higher dimensions shorten routes. *)
  let mean_hops dims =
    let net = Can.create_network ~seed:11L ~dimensions:dims ~node_count:128 () in
    let g = Stdx.Prng.create ~seed:13L in
    let summary = Stdx.Stats.Summary.create () in
    for _ = 1 to 200 do
      let _owner, hops = Can.lookup net (Key.random g) in
      Stdx.Stats.Summary.add_int summary hops
    done;
    Stdx.Stats.Summary.mean summary
  in
  let d2 = mean_hops 2 and d4 = mean_hops 4 in
  Alcotest.(check bool)
    (Printf.sprintf "2-d %.1f hops > 4-d %.1f hops" d2 d4)
    true (d2 > d4);
  Alcotest.(check bool) "2-d mean in a sane band" true (d2 >= 2.0 && d2 <= 12.0)

let can_departures_keep_tiling () =
  let net = Can.create_network ~seed:17L ~dimensions:2 ~node_count:50 () in
  List.iter (fun id -> Can.leave net id) (List.filteri (fun i _ -> i mod 3 = 0) (List.init 50 Fun.id));
  Alcotest.(check bool) "still well-formed" true (Can.is_well_formed net);
  let g = Stdx.Prng.create ~seed:19L in
  for _ = 1 to 100 do
    let key = Key.random g in
    let owner, _ = Can.lookup net key in
    Alcotest.(check int) "post-departure routing correct"
      (Can.owner_of_point net (Can.point_of_key net key))
      owner
  done

let can_point_of_key_deterministic () =
  let net = Can.create ~seed:1L ~dimensions:3 () in
  let key = Key.of_string "some key" in
  let p = Can.point_of_key net key in
  Alcotest.(check int) "three coordinates" 3 (Array.length p);
  Array.iter
    (fun x -> Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0))
    p;
  Alcotest.(check bool) "deterministic" true (Can.point_of_key net key = p)

let can_last_node_protected () =
  let net = Can.create_network ~seed:23L ~node_count:1 () in
  Alcotest.check_raises "cannot empty the space"
    (Invalid_argument "Can.leave: cannot remove the last node") (fun () -> Can.leave net 0)

let can_always_well_formed =
  QCheck.Test.make ~name:"CAN joins and leaves keep the tiling" ~count:20
    (QCheck.pair (QCheck.int_range 2 40) (QCheck.int_range 0 10))
    (fun (joins, leaves) ->
      let net = Can.create_network ~seed:(Int64.of_int (joins + 1)) ~node_count:joins () in
      let leaves = Stdlib.min leaves (joins - 1) in
      for id = 0 to leaves - 1 do
        Can.leave net id
      done;
      Can.is_well_formed net)

let pastry_always_converges_after_bootstrap =
  QCheck.Test.make ~name:"pastry create_network always converged" ~count:15
    arbitrary_node_count (fun n ->
      let net = Pastry.create_network ~seed:(Int64.of_int (n + 3)) ~node_count:n () in
      Pastry.is_converged net)

let chord_stabilize_idempotent_on_converged () =
  let ring = Chord.create_network ~seed:47L ~node_count:32 () in
  Alcotest.(check bool) "converged before" true (Chord.is_converged ring);
  Chord.stabilize ring ~rounds:3;
  Alcotest.(check bool) "still converged after extra rounds" true (Chord.is_converged ring)

let chord_live_keys_sorted () =
  let ring = Chord.create_network ~seed:53L ~node_count:20 () in
  let keys = Chord.live_keys ring in
  let sorted = List.sort Key.compare keys in
  Alcotest.(check bool) "ring order" true (List.equal Key.equal keys sorted)

(* ------------------------------------------------------------------ *)
(* Kademlia. *)

module Kademlia = Dht.Kademlia

let kademlia_xor_metric () =
  let a = Key.of_int 0b1100 and b = Key.of_int 0b1010 in
  Alcotest.(check string) "xor" (Key.to_hex (Key.of_int 0b0110))
    (Key.to_hex (Key.xor a b));
  (* Metric laws: identity, symmetry. *)
  Alcotest.(check string) "d(a,a) = 0" (Key.to_hex Key.zero)
    (Key.to_hex (Key.xor a a));
  Alcotest.(check string) "symmetric"
    (Key.to_hex (Key.xor a b))
    (Key.to_hex (Key.xor b a))

let kademlia_network_converged () =
  let net = Kademlia.create_network ~seed:3L ~node_count:60 () in
  Alcotest.(check int) "60 nodes" 60 (Kademlia.live_count net);
  Alcotest.(check bool) "converged" true (Kademlia.is_converged net)

let kademlia_lookup_matches_oracle () =
  let net = Kademlia.create_network ~seed:5L ~node_count:80 () in
  let g = Stdx.Prng.create ~seed:7L in
  for _ = 1 to 200 do
    let key = Key.random g in
    let owner, _contacted = Kademlia.lookup net key in
    Alcotest.(check string)
      (Printf.sprintf "lookup %s" (Key.short_hex key))
      (Key.to_hex (Kademlia.responsible_oracle net key))
      (Key.to_hex owner)
  done

let kademlia_lookup_cost_bounded () =
  let net = Kademlia.create_network ~seed:11L ~node_count:128 () in
  let g = Stdx.Prng.create ~seed:13L in
  let summary = Stdx.Stats.Summary.create () in
  for _ = 1 to 200 do
    let _owner, contacted = Kademlia.lookup net (Key.random g) in
    Stdx.Stats.Summary.add_int summary contacted
  done;
  (* Iterative lookups contact O(k + alpha log n) nodes, far below n. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean contacted %.1f << 128" (Stdx.Stats.Summary.mean summary))
    true
    (Stdx.Stats.Summary.mean summary < 30.0)

let kademlia_churn_recovery () =
  let net = Kademlia.create_network ~seed:17L ~node_count:60 () in
  let victims = List.filteri (fun i _ -> i mod 4 = 0) (Kademlia.live_keys net) in
  List.iter (Kademlia.leave net) victims;
  Kademlia.refresh net;
  Alcotest.(check int) "45 nodes remain" 45 (Kademlia.live_count net);
  Alcotest.(check bool) "converged after churn" true (Kademlia.is_converged net)

let kademlia_duplicate_join_rejected () =
  let net = Kademlia.create ~seed:1L () in
  Kademlia.join_with_key net (Key.of_int 5);
  Alcotest.check_raises "duplicate join"
    (Invalid_argument "Kademlia.join_with_key: identifier already joined") (fun () ->
      Kademlia.join_with_key net (Key.of_int 5))

let kademlia_resolver_replicas_xor_closest () =
  let net = Kademlia.create_network ~seed:19L ~node_count:30 () in
  let resolver = Kademlia.resolver net in
  let keys = Array.of_list (Kademlia.live_keys net) in
  let g = Stdx.Prng.create ~seed:23L in
  for _ = 1 to 50 do
    let key = Key.random g in
    match Dht.Resolver.replicas resolver key 3 with
    | (primary :: _ as replicas) ->
        Alcotest.(check int) "three distinct replicas" 3
          (List.length (List.sort_uniq Int.compare replicas));
        Alcotest.(check string) "primary is the XOR-closest"
          (Key.to_hex (Kademlia.responsible_oracle net key))
          (Key.to_hex keys.(primary))
    | [] -> Alcotest.fail "no replicas"
  done

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "dht:network",
      [
        Alcotest.test_case "traffic accounting" `Quick network_accounting;
        Alcotest.test_case "bad destination rejected" `Quick network_bad_destination;
      ] );
    ( "dht:static",
      [
        Alcotest.test_case "ownership matches brute force" `Quick
          static_ownership_brute_force;
        Alcotest.test_case "node owns own identifier" `Quick static_node_key_is_own_owner;
        Alcotest.test_case "duplicates rejected" `Quick static_rejects_duplicates;
        Alcotest.test_case "single-node ring" `Quick static_single_node_owns_all;
      ] );
    ( "dht:chord",
      [
        Alcotest.test_case "bootstrap converged" `Quick chord_network_converged;
        Alcotest.test_case "lookup matches oracle" `Quick chord_lookup_matches_oracle;
        Alcotest.test_case "hops are logarithmic" `Quick chord_lookup_hops_logarithmic;
        Alcotest.test_case "lookup from every node" `Quick chord_lookup_from_every_node;
        Alcotest.test_case "incremental joins converge" `Slow
          chord_incremental_join_converges;
        Alcotest.test_case "explicit keys" `Quick chord_join_explicit_key;
        Alcotest.test_case "duplicate join rejected" `Quick chord_duplicate_join_rejected;
        Alcotest.test_case "failure recovery" `Slow chord_failure_recovery;
        Alcotest.test_case "leave unknown raises" `Quick chord_leave_unknown_raises;
        Alcotest.test_case "single-node ring" `Quick chord_single_node_ring;
        Alcotest.test_case "resolver agrees with static" `Quick
          chord_resolver_agrees_with_static;
        Alcotest.test_case "stabilize idempotent when converged" `Quick
          chord_stabilize_idempotent_on_converged;
        Alcotest.test_case "live keys in ring order" `Quick chord_live_keys_sorted;
      ]
      @ qcheck
          [ chord_always_converges_after_bootstrap; chord_membership_caches_track_table ] );
    ( "dht:pastry",
      [
        Alcotest.test_case "key nibbles" `Quick key_nibbles;
        Alcotest.test_case "bootstrap converged" `Quick pastry_network_converged;
        Alcotest.test_case "lookup matches oracle" `Quick pastry_lookup_matches_oracle;
        Alcotest.test_case "hops are logarithmic" `Quick pastry_hops_logarithmic;
        Alcotest.test_case "lookup from every node" `Quick pastry_lookup_from_every_node;
        Alcotest.test_case "joins converge" `Slow pastry_joins_converge;
        Alcotest.test_case "failure recovery" `Slow pastry_failure_recovery;
        Alcotest.test_case "single node" `Quick pastry_single_node;
        Alcotest.test_case "duplicate join rejected" `Quick pastry_duplicate_join_rejected;
        Alcotest.test_case "resolver numerically closest" `Quick
          pastry_resolver_numerically_closest;
      ]
      @ qcheck [ pastry_always_converges_after_bootstrap ] );
    ( "dht:can",
      [
        Alcotest.test_case "zones tile after joins" `Quick can_well_formed_after_joins;
        Alcotest.test_case "lookup matches owner" `Quick can_lookup_matches_owner;
        Alcotest.test_case "hops scale with dimension" `Quick can_hops_scale_with_dimension;
        Alcotest.test_case "departures keep the tiling" `Quick can_departures_keep_tiling;
        Alcotest.test_case "point mapping deterministic" `Quick can_point_of_key_deterministic;
        Alcotest.test_case "last node protected" `Quick can_last_node_protected;
      ]
      @ qcheck [ can_always_well_formed ] );
    ( "dht:kademlia",
      [
        Alcotest.test_case "xor metric" `Quick kademlia_xor_metric;
        Alcotest.test_case "bootstrap converged" `Slow kademlia_network_converged;
        Alcotest.test_case "lookup matches oracle" `Quick kademlia_lookup_matches_oracle;
        Alcotest.test_case "lookup cost bounded" `Quick kademlia_lookup_cost_bounded;
        Alcotest.test_case "churn recovery" `Slow kademlia_churn_recovery;
        Alcotest.test_case "duplicate join rejected" `Quick kademlia_duplicate_join_rejected;
        Alcotest.test_case "resolver XOR replicas" `Quick kademlia_resolver_replicas_xor_closest;
      ] );
  ]
