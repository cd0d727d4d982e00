module Key = Hashing.Key

(* Every node is a mutable record addressed by its ring identifier.  The
   implementation follows the SIGCOMM 2001 pseudocode: find_successor /
   closest_preceding_node for routing, and stabilize / notify / fix_fingers /
   check_predecessor as the periodic maintenance driven by
   [stabilize_round].  Failures are abrupt (a node is marked dead) and
   repaired through successor lists, as in the paper's failure handling. *)

type node = {
  id : Key.t;
  mutable successor : Key.t;
  mutable predecessor : Key.t option;
  fingers : Key.t array;
  mutable successor_list : Key.t list;
  mutable ordered : bool;
      (* Every finger [i] is the node itself or at least [2^i] clockwise
         from it, as a finger that names its target's successor is. *)
}

(* Substrate health counters, prefetched from the registry at creation. *)
type instruments = {
  stabilization_rounds : Obs.Metrics.Counter.t;
  failed_lookups : Obs.Metrics.Counter.t;
}

(* [version] moves whenever a join, failure or maintenance round may
   have changed a node's routing state or liveness: a route measured at
   one version is the route at any other reading of the same version. *)
type t = { members : node Members.t; instruments : instruments option; mutable version : int }

(* Entries in each node's successor list, for failure recovery. *)
let successor_list_length = 8

let create ?metrics ?(seed = 1L) () =
  let instruments =
    Option.map
      (fun registry ->
        {
          stabilization_rounds =
            Obs.Metrics.counter registry
              ~help:"Chord maintenance rounds executed over all live nodes"
              "p2pindex_chord_stabilization_rounds_total";
          failed_lookups =
            Obs.Metrics.counter registry
              ~help:"Chord lookups abandoned because routing did not converge"
              "p2pindex_chord_failed_lookups_total";
        })
      metrics
  in
  { members = Members.create ~seed (); instruments; version = 0 }

let changed t = t.version <- t.version + 1

let node_of t key = Members.find t.members key
let is_alive t key = Members.is_alive t.members key
let live_keys t = Members.live_keys t.members
let live_count t = Members.live_count t.members
let first_live t = Members.first_live t.members

(* Ground truth: the live successor of [key] on the ring. *)
let responsible_oracle t key = Members.owner t.members Resolver.ring_successor key

(* The first live entry of a node's successor chain; the node itself when
   everything it knows about is dead (a partition stabilization must fix). *)
let rec first_live_of t n = function
  | [] -> n.id
  | k :: rest -> if is_alive t k && not (Key.equal k n.id) then k else first_live_of t n rest

let live_successor t n =
  if is_alive t n.successor then n.successor else first_live_of t n n.successor_list

(* Fingers from the most distant down: the first live one strictly
   inside (n, key), else [n] itself.  The interval test is the cheaper,
   so only fingers inside it pay the membership lookup. *)
let rec closest_preceding_from t n key i =
  if i < 0 then n.id
  else
    let f = n.fingers.(i) in
    if Key.in_interval_oo f ~lo:n.id ~hi:key && is_alive t f then f
    else closest_preceding_from t n key (i - 1)

let rec fingers_ordered n i =
  i >= Key.bits
  ||
  let f = n.fingers.(i) in
  (Key.equal f n.id || Key.distance_cw_bits n.id f > i) && fingers_ordered n (i + 1)

(* On an ordered node, a finger [i] with [2^i] at or past the key's
   distance [d] lies at or past the key, or is the node itself: neither
   is strictly inside (n, key).  So the scan starts at the highest [i]
   with [2^i <= d], and finds what the scan from the top would.  A key
   equal to the node's id asks for the whole ring minus the node. *)
let closest_preceding_node t n key =
  let start =
    if n.ordered && not (Key.equal key n.id) then Key.distance_cw_bits n.id key - 1
    else Key.bits - 1
  in
  closest_preceding_from t n key start

exception Routing_failure of string

let count_failed_lookup t =
  match t.instruments with
  | Some ins -> Obs.Metrics.Counter.incr ins.failed_lookups
  | None -> ()

let rec route t key limit current hops =
  if hops > limit then begin
    count_failed_lookup t;
    raise (Routing_failure "routing did not converge")
  end;
  let n = node_of t current in
  let succ = live_successor t n in
  if Key.in_interval_oc key ~lo:n.id ~hi:succ then (succ, hops + 1)
  else
    let next = closest_preceding_node t n key in
    (* No finger improves on the successor: forward to it. *)
    route t key limit (if Key.equal next n.id then succ else next) (hops + 1)

let find_successor t ~from key = route t key ((2 * live_count t) + Key.bits) from 0

let lookup t ?from key =
  let from = match from with Some f -> f | None -> first_live t in
  if not (is_alive t from) then invalid_arg "Chord.lookup: start node is not alive";
  find_successor t ~from key

(* ------------------------------------------------------------------ *)
(* Membership. *)

let insert_node t key successor =
  let n =
    {
      id = key;
      successor;
      predecessor = None;
      fingers = Array.make Key.bits successor;
      successor_list = [];
      ordered = false;
    }
  in
  n.ordered <- fingers_ordered n 0;
  Members.add t.members key n;
  changed t

let join_with_key t key =
  if is_alive t key then invalid_arg "Chord.join_with_key: identifier already joined";
  (* The first node is its own successor. *)
  let successor =
    if live_count t = 0 then key else fst (find_successor t ~from:(first_live t) key)
  in
  insert_node t key successor

let join t =
  let key = Members.fresh_key t.members in
  join_with_key t key;
  key

let leave t key =
  Members.fail t.members key;
  changed t

(* ------------------------------------------------------------------ *)
(* Maintenance. *)

let stabilize_node t n =
  let succ_key = live_successor t n in
  n.successor <- succ_key;
  let succ = node_of t succ_key in
  (match succ.predecessor with
  | Some x when is_alive t x && Key.in_interval_oo x ~lo:n.id ~hi:succ.id ->
      n.successor <- x
  | Some _ | None -> ());
  (* notify: tell our (possibly updated) successor about us. *)
  let succ = node_of t (live_successor t n) in
  (match succ.predecessor with
  | Some p when is_alive t p && Key.in_interval_oo n.id ~lo:p ~hi:succ.id ->
      succ.predecessor <- Some n.id
  | Some p when is_alive t p -> ()
  | Some _ | None -> if not (Key.equal succ.id n.id) then succ.predecessor <- Some n.id)

let check_predecessor t n =
  match n.predecessor with
  | Some p when not (is_alive t p) -> n.predecessor <- None
  | Some _ | None -> ()

let refresh_successor_list t n =
  let succ_key = live_successor t n in
  let succ = node_of t succ_key in
  let list = succ_key :: succ.successor_list in
  let rec take k = function
    | [] -> []
    | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
  in
  n.successor_list <- take successor_list_length (List.filter (is_alive t) list)

let fix_fingers t n =
  for i = 0 to Key.bits - 1 do
    let target = Key.add_pow2 n.id i in
    match find_successor t ~from:n.id target with
    | owner, _hops -> n.fingers.(i) <- owner
    | exception Routing_failure _ -> ()
  done;
  n.ordered <- fingers_ordered n 0

let stabilize_round t =
  changed t;
  (match t.instruments with
  | Some ins -> Obs.Metrics.Counter.incr ins.stabilization_rounds
  | None -> ());
  List.iter
    (fun key ->
      let n = node_of t key in
      check_predecessor t n;
      stabilize_node t n;
      refresh_successor_list t n;
      fix_fingers t n)
    (live_keys t)

let stabilize t ~rounds =
  for _ = 1 to rounds do
    stabilize_round t
  done

(* ------------------------------------------------------------------ *)
(* The routing state stabilization converges to, read off the live
   ring: the successor of the node at position [i], and the owner of
   finger [b]'s target.  [repair_globally] installs it and
   [is_converged] compares against it. *)

let ideal_successor ring i = Resolver.ring_key ring ((i + 1) mod Resolver.ring_length ring)

let ideal_finger ring key b =
  Resolver.ring_key ring (Resolver.ring_successor ring (Key.add_pow2 key b))

let is_converged t =
  let ring = Members.ring t.members in
  let rec fingers_ok n b =
    b >= Key.bits || (Key.equal n.fingers.(b) (ideal_finger ring n.id b) && fingers_ok n (b + 1))
  in
  let rec nodes_ok i =
    i >= Resolver.ring_length ring
    ||
    let n = node_of t (Resolver.ring_key ring i) in
    Key.equal (live_successor t n) (ideal_successor ring i) && fingers_ok n 0 && nodes_ok (i + 1)
  in
  nodes_ok 0

(* Installing the converged state directly is equivalent to running
   stabilization to convergence, in O(n log n) instead of many protocol
   rounds. *)
let repair_globally t =
  let ring = Members.ring t.members in
  let count = Resolver.ring_length ring in
  for i = 0 to count - 1 do
    let key = Resolver.ring_key ring i in
    let n = node_of t key in
    n.successor <- ideal_successor ring i;
    n.predecessor <- Some (Resolver.ring_key ring ((i + count - 1) mod count));
    n.successor_list <-
      List.init (Stdlib.min successor_list_length (count - 1)) (fun j ->
          Resolver.ring_key ring ((i + 1 + j) mod count));
    for b = 0 to Key.bits - 1 do
      n.fingers.(b) <- ideal_finger ring key b
    done;
    (* Walking clockwise from [key + 2^b], the first live node is past
       that target or is [key] itself: ideal fingers are ordered. *)
    n.ordered <- true
  done;
  changed t

let routing_state t key =
  let n = node_of t key in
  (n.successor, n.predecessor, n.successor_list, Array.to_list n.fingers)

let create_network ?metrics ?seed ~node_count () =
  if node_count <= 0 then invalid_arg "Chord.create_network: need at least one node";
  let t = create ?metrics ?seed () in
  (* No routed joins: [repair_globally] overwrites every successor,
     predecessor, successor list and finger a join would set, so each
     node is inserted bare, under the identifier [join] would draw. *)
  for _ = 1 to node_count do
    let key = Members.fresh_key t.members in
    insert_node t key key
  done;
  repair_globally t;
  t

(* ------------------------------------------------------------------ *)

(* A key's route from the first live node is fixed while the overlay is:
   it is measured once per key and version.  A failed route is not
   kept, so every failure is counted. *)
let resolver t =
  let hops = Key.Table.create 1024 and measured_at = ref t.version in
  let route_hops key =
    if !measured_at <> t.version then begin
      Key.Table.reset hops;
      measured_at := t.version
    end;
    match Key.Table.find hops key with
    | h -> h
    | exception Not_found ->
        let h = snd (lookup t key) in
        Key.Table.add hops key h;
        h
  in
  Resolver.of_ring (Members.ring t.members) ~owner:Resolver.ring_successor ~route_hops ()
