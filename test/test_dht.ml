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
  Alcotest.(check int) "total messages" 3
    (List.fold_left (fun n c -> n + Network.messages net c) 0
       Network.[ Request; Response; Cache_update; Maintenance ]);
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
      if Key.compare (Key.distance_cw key keys.(i)) (Key.distance_cw key keys.(!best)) < 0
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

(* Ring keys drawn so that prefix ties are common: each key's first
   seven bytes come from a pool of two, its other thirteen bytes vary
   only in their last byte, and one of the probes is the top of the
   ring, past every node, which must wrap to node 0. *)
let ring_search_case =
  let open QCheck.Gen in
  let prefix = string_size ~gen:char (return 7) in
  let key prefixes =
    map2
      (fun p last -> Key.of_hex (Hashing.Sha1.to_hex (p ^ String.make 12 '\x80' ^ String.make 1 last)))
      (oneofl prefixes) char
  in
  pair prefix prefix >>= fun (p1, p2) ->
  let prefixes = [ p1; p2 ] in
  pair (list_size (int_range 1 40) (key prefixes)) (list_size (int_range 1 40) (key prefixes))

let ring_successor_matches_linear_scan =
  QCheck.Test.make ~name:"ring successor matches a linear scan" ~count:300
    (QCheck.make ring_search_case) (fun (nodes, probes) ->
      let positions = Array.of_list (List.sort_uniq Key.compare nodes) in
      let ring = Dht.Resolver.ring positions in
      let linear key =
        let n = Array.length positions in
        let rec scan i = if i = n then 0 else if Key.compare positions.(i) key >= 0 then i else scan (i + 1) in
        scan 0
      in
      let top = Key.of_hex (String.make 40 'f') in
      List.for_all
        (fun key -> Dht.Resolver.ring_successor ring key = linear key)
        ((top :: probes) @ nodes))

(* The XOR descent against a sort by XOR distance, over the same
   prefix-tied rings: the closest position and the first r of the XOR
   order, r = 1..5. *)
let ring_xor_descent_matches_sort =
  QCheck.Test.make ~name:"XOR descent matches a sort" ~count:300
    (QCheck.make ring_search_case) (fun (nodes, probes) ->
      let positions = Array.of_list (List.sort_uniq Key.compare nodes) in
      let ring = Dht.Resolver.ring positions in
      let buf = Stdx.Int_buf.create () in
      List.for_all
        (fun key ->
          let by_xor =
            List.sort
              (fun i j -> Key.compare (Key.xor key positions.(i)) (Key.xor key positions.(j)))
              (List.init (Array.length positions) Fun.id)
          in
          Dht.Resolver.ring_xor_closest ring key = List.hd by_xor
          && List.for_all
               (fun r ->
                 Dht.Resolver.ring_xor_replicas_into ring key r buf;
                 Stdx.Int_buf.to_list buf = List.filteri (fun i _ -> i < r) by_xor)
               [ 1; 2; 3; 4; 5 ])
        (probes @ nodes))

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

(* [create_network] inserts its nodes without routing their joins; the
   ring it builds is the one routed joins and a global repair would. *)
let chord_bootstrap_equals_joins_then_repair () =
  List.iter
    (fun (seed, node_count) ->
      let built = Chord.create_network ~seed ~node_count () in
      let joined = Chord.create ~seed () in
      for _ = 1 to node_count do
        ignore (Chord.join joined : Key.t)
      done;
      Chord.repair_globally joined;
      let render ring =
        List.map
          (fun key ->
            let successor, predecessor, successors, fingers = Chord.routing_state ring key in
            String.concat " "
              (List.map Key.to_hex
                 ((key :: successor :: Option.to_list predecessor) @ successors @ fingers)))
          (Chord.live_keys ring)
      in
      let label = Printf.sprintf "seed %Ld, %d nodes" seed node_count in
      Alcotest.(check (list string)) (label ^ ": node states") (render joined) (render built);
      Alcotest.(check string) (label ^ ": next draw")
        (Key.to_hex (Chord.join joined)) (Key.to_hex (Chord.join built)))
    [ (1L, 1); (2L, 2); (3L, 9); (11L, 64); (42L, 150) ]

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

(* Failing a node leaves fingers pointing at it until stabilization
   repairs them; its predecessor's live successor is already right, so
   only a check of the fingers sees the damage. *)
let chord_failures_unconverge_until_stabilized () =
  let ring = Chord.create_network ~seed:29L ~node_count:50 () in
  List.iter (Chord.leave ring) (List.filteri (fun i _ -> i mod 5 = 0) (Chord.live_keys ring));
  Alcotest.(check bool) "stale fingers before stabilize" false (Chord.is_converged ring);
  Chord.stabilize ring ~rounds:6;
  Alcotest.(check bool) "converged after stabilize" true (Chord.is_converged ring)

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

(* Membership under generated join / fail / rejoin schedules, for each
   substrate with a node table (Chord, Pastry, Kademlia).  The test keeps
   its own model of the live set and, after every operation, checks the
   substrate's live count, its live keys (sorted, exactly the model), its
   minimal live key, and its ownership (the oracle, the resolver's
   primary and [Resolver.replicas] for r = 1..4) against brute-force
   folds over the model.  Ops pick a live (or failed) node by index
   modulo the count. *)
type membership = {
  join : unit -> Key.t;  (** join under a fresh identifier *)
  rejoin : Key.t -> unit;
  leave : Key.t -> unit;
  live_count : unit -> int;
  live_keys : unit -> Key.t list;
  first_live : (unit -> Key.t) option;
  oracle : Key.t -> Key.t;
  resolver : unit -> Dht.Resolver.t;
}

(* Brute-force owners, primary first, over the sorted live keys. *)
let ring_successors live key r =
  let n = Array.length live in
  let rec first i = if i = n then 0 else if Key.compare live.(i) key >= 0 then i else first (i + 1) in
  let p = first 0 in
  List.init (Stdlib.min r n) (fun i -> live.((p + i) mod n))

(* Numerically closest, exactly (no float rounding), ties to the
   smaller identifier; then that node's ring successors. *)
let numeric_closest live key r =
  let dist k =
    let cw = Key.distance_cw key k and ccw = Key.distance_cw k key in
    if Key.compare cw ccw <= 0 then cw else ccw
  in
  let best = ref 0 in
  Array.iteri
    (fun i k ->
      let c = Key.compare (dist k) (dist live.(!best)) in
      if c < 0 || (c = 0 && Key.compare k live.(!best) < 0) then best := i)
    live;
  let n = Array.length live in
  List.init (Stdlib.min r n) (fun i -> live.((!best + i) mod n))

let xor_order live key r =
  let by_distance = List.sort (fun a b -> Key.compare (Key.xor key a) (Key.xor key b)) (Array.to_list live) in
  List.filteri (fun i _ -> i < r) by_distance

(* Node identifiers for Kademlia: random, or sharing a 15-byte prefix
   with one of two fixed ones, so the XOR order is decided deep in the
   key as well as near its top. *)
let clustered_key g =
  match Stdx.Prng.int g 3 with
  | 0 -> Key.random g
  | c ->
      let base = Key.to_hex (Key.of_string (string_of_int c)) in
      Key.of_hex (String.sub base 0 30 ^ String.sub (Key.to_hex (Key.random g)) 30 10)

let membership_matches_model ~name ~count ~owners ~fresh make =
  QCheck.Test.make ~name ~count
    QCheck.(pair (int_range 1 1_000) (small_list (pair (int_bound 2) small_nat)))
    (fun (seed, ops) ->
      let g = Stdx.Prng.create ~seed:(Int64.of_int (seed + 7)) in
      let m = make (Int64.of_int seed) g in
      let live = ref [] and failed = ref [] in
      let probes live =
        List.init 4 (fun _ -> fresh g) @ match live with [] -> [] | k :: _ -> [ k ]
      in
      let consistent () =
        let model = List.sort Key.compare !live in
        let keys = m.live_keys () in
        m.live_count () = List.length model
        && List.equal Key.equal keys model
        && (match (model, m.first_live) with
           | [], Some first -> ( match first () with _ -> false | exception Not_found -> true)
           | k :: _, Some first -> Key.equal (first ()) k
           | _, None -> true)
        &&
        match model with
        | [] -> ( match m.oracle (fresh g) with _ -> false | exception Not_found -> true)
        | _ :: _ ->
            let sorted = Array.of_list model in
            let resolver = m.resolver () in
            Dht.Resolver.node_count resolver = Array.length sorted
            && List.for_all
                 (fun key ->
                   let expected r = owners sorted key r in
                   Key.equal (m.oracle key) (List.hd (expected 1))
                   && Key.equal sorted.(Dht.Resolver.responsible resolver key) (List.hd (expected 1))
                   && List.for_all
                        (fun r ->
                          List.equal Key.equal
                            (List.map (Array.get sorted) (Dht.Resolver.replicas resolver key r))
                            (expected r))
                        [ 1; 2; 3; 4 ])
                 (probes !live @ [ sorted.(Array.length sorted - 1) ])
      in
      List.for_all
        (fun (op, pick) ->
          (match (op, !live, !failed) with
          | 1, (_ :: _ as alive), _ ->
              let key = List.nth alive (pick mod List.length alive) in
              m.leave key;
              live := List.filter (fun k -> not (Key.equal k key)) alive;
              failed := key :: !failed
          | 2, _, (_ :: _ as dead) ->
              let key = List.nth dead (pick mod List.length dead) in
              m.rejoin key;
              live := key :: !live;
              failed := List.filter (fun k -> not (Key.equal k key)) dead
          | _ -> live := m.join () :: !live);
          consistent ())
        ops)

let chord_membership_caches_track_table =
  membership_matches_model ~name:"cached live count and first live key match the table"
    ~count:100 ~owners:ring_successors ~fresh:Key.random (fun seed _ ->
      let ring = Chord.create ~seed () in
      {
        join = (fun () -> Chord.join ring);
        rejoin = Chord.join_with_key ring;
        leave = Chord.leave ring;
        live_count = (fun () -> Chord.live_count ring);
        live_keys = (fun () -> Chord.live_keys ring);
        first_live = Some (fun () -> Chord.first_live ring);
        oracle = Chord.responsible_oracle ring;
        resolver = (fun () -> Chord.resolver ring);
      })

let pastry_membership_tracks_table =
  membership_matches_model ~name:"cached live count and first live key match the table"
    ~count:50 ~owners:numeric_closest ~fresh:Key.random (fun seed _ ->
      let net = Pastry.create ~seed () in
      {
        join = (fun () -> Pastry.join net);
        rejoin = Pastry.join_with_key net;
        leave = Pastry.leave net;
        live_count = (fun () -> Pastry.live_count net);
        live_keys = (fun () -> Pastry.live_keys net);
        first_live = None;
        oracle = Pastry.responsible_oracle net;
        resolver = (fun () -> Pastry.resolver net);
      })

let kademlia_membership_tracks_table =
  membership_matches_model ~name:"cached live count and first live key match the table"
    ~count:50 ~owners:xor_order ~fresh:clustered_key (fun seed g ->
      let net = Dht.Kademlia.create ~seed () in
      {
        join =
          (fun () ->
            let key = clustered_key g in
            Dht.Kademlia.join_with_key net key;
            key);
        rejoin = Dht.Kademlia.join_with_key net;
        leave = Dht.Kademlia.leave net;
        live_count = (fun () -> Dht.Kademlia.live_count net);
        live_keys = (fun () -> Dht.Kademlia.live_keys net);
        first_live = None;
        oracle = Dht.Kademlia.responsible_oracle net;
        resolver = (fun () -> Dht.Kademlia.resolver net);
      })

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

(* Lookups from every live node to each of [keys], one "owner hops" line
   apiece (or the exception a lookup raised), appended to [out]. *)
let record_lookups out ~live_keys ~lookup keys =
  List.iter
    (fun from ->
      List.iter
        (fun key ->
          match lookup ~from key with
          | owner, hops -> Printf.bprintf out "%s %d\n" (Key.to_hex owner) hops
          | exception e -> Printf.bprintf out "%s\n" (Printexc.to_string e))
        keys)
    (live_keys ())

let digest out = Hashing.Sha1.to_hex (Hashing.Sha1.digest_string (Buffer.contents out))

(* Routes and their hop counts through a fixed schedule: routed joins
   (leaf sets built from the owner's leaves, a partial pool), failures
   left unrepaired, one repair round, more churn and two rounds.  Pinned
   by digest, so a change to leaf-set construction, the leaf-range test,
   delivery or the table fallback shows. *)
let pastry_schedule_pinned () =
  let net = Pastry.create_network ~seed:41L ~node_count:40 () in
  let g = Stdx.Prng.create ~seed:43L in
  let keys = List.init 12 (fun _ -> Key.random g) in
  let out = Buffer.create 65_536 in
  let record () =
    record_lookups out ~live_keys:(fun () -> Pastry.live_keys net)
      ~lookup:(fun ~from key -> Pastry.lookup net ~from key)
      (keys @ Pastry.live_keys net)
  in
  let leave_every k =
    List.iteri (fun i key -> if i mod k = 0 then Pastry.leave net key) (Pastry.live_keys net)
  in
  record ();
  for _ = 1 to 8 do
    ignore (Pastry.join net)
  done;
  record ();
  leave_every 4;
  record ();
  Pastry.repair net;
  record ();
  for _ = 1 to 4 do
    ignore (Pastry.join net)
  done;
  leave_every 9;
  Pastry.repair net;
  Pastry.repair net;
  record ();
  Alcotest.(check int) "live nodes" 35 (Pastry.live_count net);
  Alcotest.(check string) "lookup digest" "7b63c3f9bf8cc30f95090e51853d1db8bb33a8d6" (digest out)

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
  Alcotest.(check bool) "deterministic" true (Can.point_of_key net key = p);
  (* Past five dimensions the 40 digits wrap: the sixth coordinate
     reads the first one's digits. *)
  let p6 = Can.point_of_key (Can.create ~dimensions:6 ()) key in
  Alcotest.(check (float 0.0)) "sixth coordinate wraps" p6.(0) p6.(5)

(* Greedy routing's tie rule, on a 1-d CAN of five zones (seed 1): node
   0 holds [0, 1/4), 4 [1/4, 1/2), 2 [1/2, 3/4), 1 [3/4, 7/8) and 3
   [7/8, 1).  From node 0, the point 11/16 in node 2's zone lies 3/16
   from both of 0's neighbours: 4 across 1/2, and 3 across 7/8 the other
   way round the torus.  The hop goes to the higher id, 4, which is one
   hop from the owner; through 3 the route would take two. *)
let can_greedy_tie_takes_higher_id () =
  let net = Can.create_network ~seed:1L ~dimensions:1 ~node_count:5 () in
  List.iter
    (fun (x, owner) ->
      Alcotest.(check int) (Printf.sprintf "owner of %g" x) owner (Can.owner_of_point net [| x |]))
    [ (0.0, 0); (0.249, 0); (0.25, 4); (0.499, 4); (0.5, 2); (0.749, 2); (0.75, 1); (0.874, 1);
      (0.875, 3); (0.999, 3) ];
  Alcotest.(check (list int)) "neighbours of 0" [ 3; 4 ] (Can.neighbours net 0);
  let key = Key.of_hex ("b0000000" ^ String.make 32 '0') in
  Alcotest.(check (float 0.0)) "the key's point" 0.6875 (Can.point_of_key net key).(0);
  let via m = 1 + snd (Can.lookup net ~from:m key) in
  Alcotest.(check (pair int int)) "hops through 4 and through 3" (3, 4) (via 4, via 3);
  Alcotest.(check (pair int int)) "from 0: owner 2, through 4" (2, 3) (Can.lookup net ~from:0 key)

let can_last_node_protected () =
  let net = Can.create_network ~seed:23L ~node_count:1 () in
  Alcotest.check_raises "cannot empty the space"
    (Invalid_argument "Can.leave: cannot remove the last node") (fun () -> Can.leave net 0)

(* Interleaved join / leave schedules over one to four dimensions.
   After each schedule: [is_well_formed] (the tree's owner against a
   scan of every leaf at sampled points, the walked neighbours against
   a pairwise scan of the zones), symmetric neighbours, greedy routing
   from every live node to the owner, and replica placement as the
   owner then its neighbours ascending, truncated at r = 1..5.  A leave
   picks a live node by index; the last node always joins instead. *)
let can_schedule =
  let open QCheck.Gen in
  triple (int_range 1 4) (int_range 1 30) (list_size (int_range 0 60) (pair bool nat))

let can_always_well_formed =
  QCheck.Test.make ~name:"CAN joins and leaves keep the tiling" ~count:40
    (QCheck.make
       ~print:QCheck.Print.(triple int int (list (pair bool int)))
       can_schedule)
    (fun (dims, initial, schedule) ->
      let net =
        Can.create_network ~seed:(Int64.of_int ((10 * initial) + dims)) ~dimensions:dims
          ~node_count:initial ()
      in
      let live = ref (List.init initial Fun.id) in
      List.iter
        (fun (joins, pick) ->
          match !live with
          | [ _ ] -> live := !live @ [ Can.join net ]
          | _ when joins -> live := !live @ [ Can.join net ]
          | _ ->
              let id = List.nth !live (pick mod List.length !live) in
              Can.leave net id;
              live := List.filter (fun x -> x <> id) !live)
        schedule;
      let live = !live in
      let ids = Array.of_list live in
      let index id =
        let rec find i = if ids.(i) = id then i else find (i + 1) in
        find 0
      in
      let resolver = Can.resolver net in
      let rec take k = function [] -> [] | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest in
      let g = Stdx.Prng.create ~seed:(Int64.of_int (List.length schedule)) in
      Can.node_count net = List.length live
      && Can.is_well_formed net
      && List.for_all
           (fun id -> List.for_all (fun m -> List.mem id (Can.neighbours net m)) (Can.neighbours net id))
           live
      && List.for_all
           (fun _ ->
             let key = Key.random g in
             let owner = Can.owner_of_point net (Can.point_of_key net key) in
             List.for_all (fun from -> fst (Can.lookup net ~from key) = owner) live
             && List.for_all
                  (fun r ->
                    Dht.Resolver.replicas resolver key r
                    = List.map index (take r (owner :: Can.neighbours net owner)))
                  [ 1; 2; 3; 4; 5 ])
           (List.init 20 Fun.id))

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

(* Lookups and their contact counts through a fixed schedule: joins,
   failures whose contacts linger in buckets, a refresh, more churn and
   another refresh.  Lookups teach both sides, so each recorded round
   also shapes the next.  Pinned by digest. *)
let kademlia_schedule_pinned () =
  let net = Kademlia.create_network ~seed:41L ~node_count:30 () in
  let g = Stdx.Prng.create ~seed:43L in
  let keys = List.init 10 (fun _ -> Key.random g) in
  let out = Buffer.create 65_536 in
  let record () =
    record_lookups out ~live_keys:(fun () -> Kademlia.live_keys net)
      ~lookup:(fun ~from key -> Kademlia.lookup net ~from key)
      keys
  in
  let leave_every k =
    List.iteri (fun i key -> if i mod k = 0 then Kademlia.leave net key) (Kademlia.live_keys net)
  in
  record ();
  for _ = 1 to 6 do
    Kademlia.join_with_key net (Key.random g)
  done;
  record ();
  leave_every 4;
  record ();
  Kademlia.refresh net;
  record ();
  for _ = 1 to 4 do
    Kademlia.join_with_key net (Key.random g)
  done;
  leave_every 7;
  Kademlia.refresh net;
  record ();
  Alcotest.(check int) "live nodes" 26 (Kademlia.live_count net);
  Alcotest.(check string) "lookup digest" "292ae9bf8fcbc4ff93fa909b699f92fd4013b42e" (digest out)

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

(* Every substrate as [simulate] builds it, converged and never changed
   afterwards, routes any key: the index measures and bills these hop
   counts with no guard. *)
let route_hops_total () =
  let resolvers ~seed ~node_count =
    [
      ("static", Static.resolver (Static.create ~seed ~node_count ()));
      ("chord", Chord.resolver (Chord.create_network ~seed ~node_count ()));
      ("pastry", Pastry.resolver (Pastry.create_network ~seed ~node_count ()));
      ("can", Can.resolver (Can.create_network ~seed ~node_count ()));
      ("kademlia", Kademlia.resolver (Kademlia.create_network ~seed ~node_count ()));
    ]
  in
  List.iter
    (fun node_count ->
      List.iter
        (fun (name, resolver) ->
          let g = Stdx.Prng.create ~seed:31L in
          for _ = 1 to 500 do
            let hops = Dht.Resolver.route_hops resolver (Key.random g) in
            if hops < 0 then Alcotest.failf "%s at %d nodes: %d hops" name node_count hops
          done)
        (resolvers ~seed:13L ~node_count))
    [ 1; 2; 16; 200 ]

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

(* Chord's finger scan starts below the key: a reference lookup that
   scans every finger from the top, over the routing state the ring
   exposes, must route exactly as the ring does — on converged rings,
   after failures, and on rings joined without repair or stabilized
   part way, whose fingers may name nodes short of their targets. *)
let chord_reference_lookup ring ~from key =
  let live = Chord.live_keys ring in
  let alive k = List.exists (Key.equal k) live in
  let limit = (2 * List.length live) + Key.bits in
  let rec route current hops =
    if hops > limit then None
    else
      let successor, _, successors, fingers = Chord.routing_state ring current in
      let successor =
        if alive successor then successor
        else
          Option.value ~default:current
            (List.find_opt (fun k -> alive k && not (Key.equal k current)) successors)
      in
      if Key.in_interval_oc key ~lo:current ~hi:successor then Some (successor, hops + 1)
      else
        let fingers = Array.of_list fingers in
        let rec scan i =
          if i < 0 then current
          else if Key.in_interval_oo fingers.(i) ~lo:current ~hi:key && alive fingers.(i) then
            fingers.(i)
          else scan (i - 1)
        in
        let next = scan (Key.bits - 1) in
        route (if Key.equal next current then successor else next) (hops + 1)
  in
  route from 0

let chord_finger_scan_matches_full_scan =
  QCheck.Test.make ~name:"finger scan from below the key = full scan" ~count:40
    QCheck.(quad (int_range 1 40) (int_range 0 8) (int_range 0 3) (int_range 0 5))
    (fun (count, joins, rounds, failures) ->
      let seed = Int64.of_int ((count * 97) + (joins * 13) + (rounds * 7) + failures) in
      let ring = Chord.create_network ~seed ~node_count:count () in
      for _ = 1 to joins do
        ignore (Chord.join ring : Key.t)
      done;
      Chord.stabilize ring ~rounds;
      List.iteri
        (fun i k -> if i < failures && Chord.live_count ring > 1 then Chord.leave ring k)
        (List.rev (Chord.live_keys ring));
      let live = Chord.live_keys ring in
      let g = Stdx.Prng.create ~seed in
      (* Random keys, the nodes' own identifiers, and the points either
         side of them, which wrap the ring from its first and last
         nodes. *)
      let keys =
        List.init 10 (fun _ -> Key.random g)
        @ List.concat_map
            (fun k ->
              [ k; Key.add_pow2 k 0; Key.distance_cw (Key.of_int 1) k ])
            live
        @ [ Key.zero ]
      in
      List.for_all
        (fun from ->
          List.for_all
            (fun key ->
              (* A route the reference abandons, the ring abandons too,
                 raising its own failure: such keys are not asked. *)
              match chord_reference_lookup ring ~from key with
              | None -> true
              | Some expected -> Chord.lookup ring ~from key = expected)
            keys)
        live)

let suite =
  [
    ( "dht:network",
      [
        Alcotest.test_case "traffic accounting" `Quick network_accounting;
        Alcotest.test_case "bad destination rejected" `Quick network_bad_destination;
        Alcotest.test_case "route hops on every substrate" `Quick route_hops_total;
      ] );
    ( "dht:static",
      [
        Alcotest.test_case "ownership matches brute force" `Quick
          static_ownership_brute_force;
        Alcotest.test_case "node owns own identifier" `Quick static_node_key_is_own_owner;
        Alcotest.test_case "duplicates rejected" `Quick static_rejects_duplicates;
        Alcotest.test_case "single-node ring" `Quick static_single_node_owns_all;
      ]
      @ qcheck [ ring_successor_matches_linear_scan ] );
    ( "dht:chord",
      [
        Alcotest.test_case "bootstrap converged" `Quick chord_network_converged;
        Alcotest.test_case "bootstrap = joins then repair" `Quick
          chord_bootstrap_equals_joins_then_repair;
        Alcotest.test_case "lookup matches oracle" `Quick chord_lookup_matches_oracle;
        Alcotest.test_case "hops are logarithmic" `Quick chord_lookup_hops_logarithmic;
        Alcotest.test_case "lookup from every node" `Quick chord_lookup_from_every_node;
        Alcotest.test_case "incremental joins converge" `Slow
          chord_incremental_join_converges;
        Alcotest.test_case "explicit keys" `Quick chord_join_explicit_key;
        Alcotest.test_case "duplicate join rejected" `Quick chord_duplicate_join_rejected;
        Alcotest.test_case "failure recovery" `Slow chord_failure_recovery;
        Alcotest.test_case "failures unconverge until stabilized" `Quick
          chord_failures_unconverge_until_stabilized;
        Alcotest.test_case "leave unknown raises" `Quick chord_leave_unknown_raises;
        Alcotest.test_case "single-node ring" `Quick chord_single_node_ring;
        Alcotest.test_case "resolver agrees with static" `Quick
          chord_resolver_agrees_with_static;
        Alcotest.test_case "stabilize idempotent when converged" `Quick
          chord_stabilize_idempotent_on_converged;
        Alcotest.test_case "live keys in ring order" `Quick chord_live_keys_sorted;
      ]
      @ qcheck
          [
            chord_always_converges_after_bootstrap;
            chord_membership_caches_track_table;
            chord_finger_scan_matches_full_scan;
          ] );
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
        Alcotest.test_case "churn schedule routes pinned" `Quick pastry_schedule_pinned;
      ]
      @ qcheck [ pastry_always_converges_after_bootstrap; pastry_membership_tracks_table ] );
    ( "dht:can",
      [
        Alcotest.test_case "zones tile after joins" `Quick can_well_formed_after_joins;
        Alcotest.test_case "lookup matches owner" `Quick can_lookup_matches_owner;
        Alcotest.test_case "hops scale with dimension" `Quick can_hops_scale_with_dimension;
        Alcotest.test_case "departures keep the tiling" `Quick can_departures_keep_tiling;
        Alcotest.test_case "point mapping deterministic" `Quick can_point_of_key_deterministic;
        Alcotest.test_case "last node protected" `Quick can_last_node_protected;
        Alcotest.test_case "greedy tie goes to the higher id" `Quick can_greedy_tie_takes_higher_id;
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
        Alcotest.test_case "churn schedule lookups pinned" `Quick kademlia_schedule_pinned;
      ]
      @ qcheck [ ring_xor_descent_matches_sort; kademlia_membership_tracks_table ] );
  ]
